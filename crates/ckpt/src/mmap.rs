//! Read-only file mapping with a portable owned-buffer fallback.
//!
//! The lazy store reader ([`crate::MappedStore`]) wants the whole file
//! addressable as one `&[u8]` without paying to copy it into the heap:
//! encoded records stay in the page cache and only the pages a replay
//! actually touches become resident. On Unix we get that from `mmap(2)`
//! declared directly (the same no-dependency pattern `smarts-server`
//! uses for `signal(2)`); everywhere else — and whenever the mapping
//! call fails — we fall back to reading the file into an owned buffer,
//! which is semantically identical and merely eager.
//!
//! The mapping is `PROT_READ` + `MAP_PRIVATE`: nothing can write
//! through it, and writes to the underlying file by others are not
//! required to be visible. Stores are immutable after
//! rename-on-commit, so neither property is ever exercised; truncating
//! a store while it is mapped is outside the protocol (on Unix it
//! would raise `SIGBUS`, exactly as for any mapped file).

use std::fs::File;
use std::io::Read;
use std::path::Path;

/// The bytes of one store file, mapped when possible, owned otherwise.
#[derive(Debug)]
pub(crate) struct StoreMap {
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Owned(Vec<u8>),
}

// SAFETY: a `Mapped` backing is a read-only private mapping; the
// pointer is never written through and stays valid until `Drop`
// unmaps it, so sharing the map across threads is sound. The `Owned`
// variant is a plain `Vec<u8>`.
#[allow(unsafe_code)]
#[cfg(unix)]
unsafe impl Send for StoreMap {}
#[allow(unsafe_code)]
#[cfg(unix)]
unsafe impl Sync for StoreMap {}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    //! The two libc entry points we need, declared directly so the
    //! crate stays free of external dependencies. Constants match the
    //! POSIX values shared by Linux and the BSDs.

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

impl StoreMap {
    /// Opens `path`, mapping it when `allow_mmap` is set and the
    /// platform cooperates, reading it into memory otherwise. An empty
    /// file yields an empty owned buffer (POSIX forbids zero-length
    /// mappings).
    pub(crate) fn open(path: &Path, allow_mmap: bool) -> std::io::Result<StoreMap> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(unix)]
        if allow_mmap && len > 0 && len <= usize::MAX as u64 {
            if let Some(backing) = map_file(&file, len as usize) {
                return Ok(StoreMap { backing });
            }
        }
        #[cfg(not(unix))]
        let _ = allow_mmap;
        let mut buf = Vec::with_capacity(len.min(1 << 32) as usize);
        file.read_to_end(&mut buf)?;
        Ok(StoreMap {
            backing: Backing::Owned(buf),
        })
    }

    /// The file contents.
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: `ptr` came from a successful `mmap` of `len`
                // readable bytes and stays mapped until `Drop`.
                #[allow(unsafe_code)]
                unsafe {
                    std::slice::from_raw_parts(*ptr, *len)
                }
            }
            Backing::Owned(buf) => buf,
        }
    }

    /// Whether the file is memory-mapped (false for the owned-buffer
    /// fallback).
    pub(crate) fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }
}

#[cfg(unix)]
#[allow(unsafe_code)]
fn map_file(file: &File, len: usize) -> Option<Backing> {
    use std::os::unix::io::AsRawFd;
    // SAFETY: fd is open for reading, len is the file's current size
    // and nonzero; a failed map returns MAP_FAILED (-1), checked below.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr as isize == -1 || ptr.is_null() {
        return None;
    }
    Some(Backing::Mapped {
        ptr: ptr as *const u8,
        len,
    })
}

impl Drop for StoreMap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: the pointer/length pair came from the successful
            // `mmap` in `map_file` and is unmapped exactly once here.
            #[allow(unsafe_code)]
            unsafe {
                sys::munmap(ptr as *mut core::ffi::c_void, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("smarts-mmap-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn mapped_and_owned_backings_read_identically() {
        let path = temp_path("basic");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7 + 3) as u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let mapped = StoreMap::open(&path, true).unwrap();
        let owned = StoreMap::open(&path, false).unwrap();
        assert!(!owned.is_mapped());
        assert_eq!(mapped.bytes(), payload.as_slice());
        assert_eq!(owned.bytes(), payload.as_slice());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_bytes() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let map = StoreMap::open(&path, true).unwrap();
        assert!(map.bytes().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    /// A readable file that `mmap` refuses: a sysfs attribute reports
    /// a 4096-byte `st_size`, `mmap` fails with `ENODEV`, and `read`
    /// returns the few bytes it really holds. The open falls back to
    /// the owned buffer and reads exactly those bytes.
    #[test]
    #[cfg(target_os = "linux")]
    fn an_unmappable_file_falls_back_to_reading_it() {
        let path = Path::new("/sys/devices/system/cpu/online");
        let map = StoreMap::open(path, true).unwrap();
        assert!(!map.is_mapped());
        assert_eq!(map.bytes(), std::fs::read(path).unwrap().as_slice());

        // A zero-length request is refused too (`MAP_FAILED`), which is
        // why `open` never makes one.
        let temp = temp_path("zero");
        std::fs::write(&temp, b"store").unwrap();
        let file = std::fs::File::open(&temp).unwrap();
        assert!(map_file(&file, 0).is_none());
        std::fs::remove_file(&temp).unwrap();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = temp_path("threads");
        let payload = vec![0xA5u8; 64 * 1024];
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let map = std::sync::Arc::new(StoreMap::open(&path, true).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let map = std::sync::Arc::clone(&map);
                scope.spawn(move || {
                    assert!(map.bytes().iter().all(|&b| b == 0xA5));
                });
            }
        });
        std::fs::remove_file(&path).unwrap();
    }
}
