//! The on-disk store: versioned header, fingerprint and streaming
//! writer. Reading records back is [`crate::MappedStore`]'s job.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! header:  magic "SMARTSCK" | version u32 = 3 | isa tag u8
//!          | fingerprint u64
//!          | unit_size u64 | detailed_warming u64 | warming u8
//!          | interval u64 | offset u64 | max_units u8 [+ u64]
//!          | scale f64-bits u64 | name_len u32 | name bytes
//!          | crc32 u32 (over everything above)
//! record:  payload_len u32 | crc32 u32 (over payload) | payload
//! footer:  marker u32 = 0xFFFF_FFFF | count u64 | offset u64 × count
//!          | crc32 u32 (over count + offsets)
//!          | footer_len u64 | magic "SMARTSIX"
//! ```
//!
//! Records are the delta-encoded flats of [`crate::flat`], each
//! independently CRC-checked so corruption is localized: a reader
//! keeps every intact prefix record and then surfaces a typed error
//! for the first bad one.
//!
//! The index footer records the absolute file offset of every
//! record's 8-byte prefix, so [`crate::MappedStore`] can address
//! records randomly without a sequential parse. The footer is a pure
//! function of the record stream — [`CkptWriter::finish`] derives it
//! from the offsets it tracked while appending — so two stores with
//! identical records are byte-identical files including the footer.
//! The framing constants, the footer's encoding and both ways of
//! locating records live in `lazy.rs`.

use crate::error::CkptError;
use crate::flat::{encode_next, encode_record, FlatCheckpoint};
use crate::lazy::encode_footer;
use smarts_core::{SamplingParams, UnitCheckpoint, Warming};
use smarts_isa::{crc32, Isa, IsaId};
use smarts_uarch::{CacheConfig, MachineConfig, PredictorConfig, TlbConfig, WarmState};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Store magic: the first eight bytes of every checkpoint store.
pub const MAGIC: [u8; 8] = *b"SMARTSCK";

/// The one on-disk format version this build writes and reads: an
/// [`IsaId`] tag byte after the version field, and an index footer
/// after the records. Any other version is refused with
/// [`CkptError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 3;

/// Trailing magic closing a store's index footer.
pub const INDEX_MAGIC: [u8; 8] = *b"SMARTSIX";

/// Fingerprint schema version, mixed into [`warm_fingerprint`].
/// Decoupled from [`FORMAT_VERSION`]: a container change does not alter
/// what a store's records mean.
const FINGERPRINT_VERSION: u64 = 1;

/// SplitMix64 finalizer folded over a running hash — the same mixing
/// the workloads RNG uses, applied as a one-way fingerprint.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix_cache(h: u64, c: &CacheConfig) -> u64 {
    let h = mix(h, c.size_bytes);
    let h = mix(h, c.assoc as u64);
    let h = mix(h, c.line_bytes);
    mix(h, c.latency)
}

fn mix_tlb(h: u64, t: &TlbConfig) -> u64 {
    let h = mix(h, t.entries as u64);
    let h = mix(h, t.assoc as u64);
    let h = mix(h, t.page_bytes);
    mix(h, t.miss_penalty)
}

fn mix_bpred(h: u64, b: &PredictorConfig) -> u64 {
    let h = mix(h, b.bimodal_entries as u64);
    let h = mix(h, b.gshare_entries as u64);
    let h = mix(h, b.meta_entries as u64);
    let h = mix(h, b.btb_entries as u64);
    let h = mix(h, b.btb_assoc as u64);
    let h = mix(h, b.ras_entries as u64);
    let h = mix(h, b.mispred_penalty);
    mix(h, b.predictions_per_cycle as u64)
}

/// Fingerprint of a machine's functional-warming geometry: exactly the
/// fields functional warming depends on (caches, TLBs, predictor, memory
/// latency). Machines that differ only
/// in pipeline-core parameters (widths, window, FUs) fingerprint
/// identically — that is the warm-once/replay-many-configs contract.
pub fn warm_fingerprint(cfg: &MachineConfig) -> u64 {
    let h = mix(0x534D_4152_5453_434B, FINGERPRINT_VERSION); // "SMARTSCK"
    let h = mix_cache(h, &cfg.l1i);
    let h = mix_cache(h, &cfg.l1d);
    let h = mix_cache(h, &cfg.l2);
    let h = mix_tlb(h, &cfg.itlb);
    let h = mix_tlb(h, &cfg.dtlb);
    let h = mix_bpred(h, &cfg.bpred);
    mix(h, cfg.mem_latency)
}

/// Checks a store's recorded warm-geometry fingerprint against the
/// machine that wants to replay it — the one shared gate used by
/// [`MappedStore::open`](crate::MappedStore::open) and by callers that manage stores without
/// opening them (the `smarts-server` store manager).
///
/// # Errors
///
/// Returns [`CkptError::FingerprintMismatch`] when `cfg`'s warming
/// geometry differs from `found`.
pub fn check_fingerprint(cfg: &MachineConfig, found: u64) -> Result<(), CkptError> {
    let expected = warm_fingerprint(cfg);
    if found != expected {
        return Err(CkptError::FingerprintMismatch { expected, found });
    }
    Ok(())
}

/// Everything a replay needs to know about how the store was produced:
/// the sampling design plus the benchmark identity, so
/// `--from-checkpoints` needs no `--bench`/`--scale`/`--n` repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// The sampling design the warming pass ran with.
    pub params: SamplingParams,
    /// Benchmark name (e.g. `"hashp-2"`), or the trace path for the
    /// trace frontend.
    pub benchmark: String,
    /// Scale factor the benchmark was loaded with.
    pub scale: f64,
    /// The instruction-set frontend the store's checkpoints were
    /// produced under, and the one a replay rebuilds them with.
    pub isa: IsaId,
}

/// Salt mixed ahead of the [`IsaId`] tag in store fingerprints ("ISA"
/// in ASCII), so an ISA tag can never collide with an adjacent
/// benchmark-name byte fold.
const FINGERPRINT_ISA_SALT: u64 = 0x0049_5341;

impl StoreMeta {
    /// Full store-identity fingerprint: the warm-geometry
    /// [`warm_fingerprint`] folded with the benchmark name, scale, and
    /// every sampling-design field. Two stores fingerprint identically
    /// exactly when one warming pass could serve both — this is the key
    /// the `smarts-server` store manager maps to a store path and the
    /// results cache keys on.
    pub fn fingerprint(&self, cfg: &MachineConfig) -> u64 {
        // The frontend tag is folded in, so stores from different
        // frontends can never share an identity.
        let h = mix(
            mix(warm_fingerprint(cfg), FINGERPRINT_ISA_SALT),
            self.isa.tag() as u64,
        );
        let h = self
            .benchmark
            .as_bytes()
            .iter()
            .fold(h, |h, &b| mix(h, b as u64));
        let h = mix(h, self.benchmark.len() as u64);
        let h = mix(h, self.scale.to_bits());
        let h = mix(h, self.params.unit_size);
        let h = mix(h, self.params.detailed_warming);
        let h = mix(
            h,
            match self.params.warming {
                Warming::None => 0,
                Warming::Functional => 1,
            },
        );
        let h = mix(h, self.params.interval);
        let h = mix(h, self.params.offset);
        match self.params.max_units {
            None => mix(h, u64::MAX),
            Some(max) => mix(mix(h, 1), max),
        }
    }
}

/// Reads just the header of a store: its warm-geometry fingerprint and
/// self-describing [`StoreMeta`], without decoding any record and
/// without requiring a machine to check against. This is how a store
/// directory can be inventoried (or a candidate store validated) in
/// O(header) instead of O(replay).
///
/// # Errors
///
/// As for [`MappedStore::open`](crate::MappedStore::open) minus the
/// fingerprint check:
/// [`CkptError::BadMagic`], [`CkptError::UnsupportedVersion`],
/// [`CkptError::HeaderCorrupted`], or [`CkptError::Io`].
pub fn read_store_meta(path: impl AsRef<Path>) -> Result<(u64, StoreMeta), CkptError> {
    let mut file = BufReader::new(File::open(path)?);
    decode_header(&mut file)
}

pub(crate) fn encode_header(fingerprint: u64, meta: &StoreMeta) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(meta.isa.tag());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&meta.params.unit_size.to_le_bytes());
    out.extend_from_slice(&meta.params.detailed_warming.to_le_bytes());
    out.push(match meta.params.warming {
        Warming::None => 0,
        Warming::Functional => 1,
    });
    out.extend_from_slice(&meta.params.interval.to_le_bytes());
    out.extend_from_slice(&meta.params.offset.to_le_bytes());
    match meta.params.max_units {
        None => out.push(0),
        Some(max) => {
            out.push(1);
            out.extend_from_slice(&max.to_le_bytes());
        }
    }
    out.extend_from_slice(&meta.scale.to_bits().to_le_bytes());
    let name = meta.benchmark.as_bytes();
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Incremental header parser: reads fields while accumulating the raw
/// bytes so the trailing CRC can be checked over exactly what was read.
struct HeaderReader<'a, R: Read> {
    inner: &'a mut R,
    raw: Vec<u8>,
}

impl<'a, R: Read> HeaderReader<'a, R> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CkptError> {
        let mut buf = [0u8; N];
        self.inner
            .read_exact(&mut buf)
            .map_err(|_| CkptError::HeaderCorrupted)?;
        self.raw.extend_from_slice(&buf);
        Ok(buf)
    }

    fn take_vec(&mut self, n: usize) -> Result<Vec<u8>, CkptError> {
        let mut buf = vec![0u8; n];
        self.inner
            .read_exact(&mut buf)
            .map_err(|_| CkptError::HeaderCorrupted)?;
        self.raw.extend_from_slice(&buf);
        Ok(buf)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }
}

pub(crate) fn decode_header(reader: &mut impl Read) -> Result<(u64, StoreMeta), CkptError> {
    let mut h = HeaderReader {
        inner: reader,
        raw: Vec::new(),
    };
    let magic = h.take::<8>().map_err(|_| CkptError::BadMagic)?;
    if magic != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = h.u32()?;
    if version != FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let isa = IsaId::from_tag(h.u8()?).ok_or(CkptError::HeaderCorrupted)?;
    let fingerprint = h.u64()?;
    let unit_size = h.u64()?;
    let detailed_warming = h.u64()?;
    let warming = match h.u8()? {
        0 => Warming::None,
        1 => Warming::Functional,
        _ => return Err(CkptError::HeaderCorrupted),
    };
    let interval = h.u64()?;
    let offset = h.u64()?;
    let max_units = match h.u8()? {
        0 => None,
        1 => Some(h.u64()?),
        _ => return Err(CkptError::HeaderCorrupted),
    };
    let scale = f64::from_bits(h.u64()?);
    let name_len = h.u32()?;
    if name_len > 4096 {
        return Err(CkptError::HeaderCorrupted);
    }
    let name_bytes = h.take_vec(name_len as usize)?;
    let benchmark = String::from_utf8(name_bytes).map_err(|_| CkptError::HeaderCorrupted)?;
    let expected_crc = crc32(&h.raw);
    let stored_crc = u32::from_le_bytes(h.take::<4>()?);
    if stored_crc != expected_crc {
        return Err(CkptError::HeaderCorrupted);
    }
    Ok((
        fingerprint,
        StoreMeta {
            params: SamplingParams {
                unit_size,
                detailed_warming,
                warming,
                interval,
                offset,
                max_units,
            },
            benchmark,
            scale,
            isa,
        },
    ))
}

/// Summary of a completed write pass.
#[derive(Debug, Clone, Copy)]
pub struct WriteSummary {
    /// Records written.
    pub records: u64,
    /// Total file bytes (header, all records, and the index footer).
    pub bytes: u64,
}

/// Streaming checkpoint-store writer: appends each checkpoint as a
/// delta-encoded, CRC-protected record the moment the warming pass
/// emits it, so persisting overlaps warming instead of following it.
pub struct CkptWriter {
    file: BufWriter<File>,
    fingerprint: u64,
    isa: IsaId,
    /// The last appended record's flat and the warm state it was
    /// flattened from: the next append compares packed sets against the
    /// latter instead of re-serializing the machine.
    prev: Option<(FlatCheckpoint, WarmState)>,
    records: u64,
    bytes: u64,
    offsets: Vec<u64>,
}

impl CkptWriter {
    /// Creates (truncating) a store at `path` for a machine's warming
    /// geometry and a sampling design.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Io`] when the file cannot be created or the
    /// header cannot be written.
    pub fn create(
        path: impl AsRef<Path>,
        cfg: &MachineConfig,
        meta: &StoreMeta,
    ) -> Result<Self, CkptError> {
        let mut file = BufWriter::new(File::create(path)?);
        let fingerprint = warm_fingerprint(cfg);
        let header = encode_header(fingerprint, meta);
        file.write_all(&header)?;
        Ok(CkptWriter {
            file,
            fingerprint,
            isa: meta.isa,
            prev: None,
            records: 0,
            bytes: header.len() as u64,
            offsets: Vec::new(),
        })
    }

    /// The warm-geometry fingerprint written into the store header.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Appends one checkpoint, delta-encoded against the previously
    /// appended one. Checkpoints must be appended in stream order (the
    /// order the warming pass emits them) — that is what the reader
    /// decodes against.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Io`] on a write failure, or
    /// [`CkptError::IsaMismatch`] when the checkpoint's frontend differs
    /// from the one the store was created for.
    pub fn append<I: Isa>(&mut self, checkpoint: &UnitCheckpoint<I>) -> Result<(), CkptError> {
        if I::ID != self.isa {
            return Err(CkptError::IsaMismatch {
                expected: I::ID,
                found: self.isa,
            });
        }
        let payload = match &mut self.prev {
            Some((prev, shadow)) => encode_next(prev, shadow, checkpoint),
            // Record 0: serialize the whole state once and start
            // shadowing it.
            None => {
                let flat = FlatCheckpoint::flatten(checkpoint);
                let payload = encode_record(&flat, None);
                self.prev = Some((flat, checkpoint.warm().clone()));
                payload
            }
        };
        let crc = crc32(&payload);
        // A reader refuses a longer record as implausible; never write one.
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= crate::lazy::MAX_PAYLOAD);
        let too_long = "checkpoint record longer than a store reader accepts";
        let len = len.ok_or_else(|| CkptError::Io(std::io::Error::other(too_long)))?;
        self.file.write_all(&len.to_le_bytes())?;
        self.file.write_all(&crc.to_le_bytes())?;
        self.file.write_all(&payload)?;
        self.offsets.push(self.bytes);
        self.bytes += 8 + payload.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Writes the index footer, flushes, and closes the store. The
    /// footer is derived purely from the record offsets tracked while
    /// appending, so identical record streams finish to byte-identical
    /// files.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Io`] when the footer write or final flush
    /// fails.
    pub fn finish(mut self) -> Result<WriteSummary, CkptError> {
        let footer = encode_footer(&self.offsets);
        self.file.write_all(&footer)?;
        self.bytes += footer.len() as u64;
        self.file.flush()?;
        Ok(WriteSummary {
            records: self.records,
            bytes: self.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_pipeline_core_but_not_warm_geometry() {
        let base = MachineConfig::eight_way();
        let mut narrow = base.clone();
        narrow.issue_width = 2;
        narrow.fetch_width = 2;
        narrow.decode_width = 2;
        narrow.commit_width = 2;
        narrow.ruu_size = 32;
        assert_eq!(warm_fingerprint(&base), warm_fingerprint(&narrow));

        let sixteen = MachineConfig::sixteen_way();
        assert_ne!(warm_fingerprint(&base), warm_fingerprint(&sixteen));

        let mut bigger_l2 = base.clone();
        bigger_l2.l2.size_bytes *= 2;
        assert_ne!(warm_fingerprint(&base), warm_fingerprint(&bigger_l2));
    }

    #[test]
    fn check_fingerprint_gates_on_warm_geometry() {
        let cfg = MachineConfig::eight_way();
        assert!(check_fingerprint(&cfg, warm_fingerprint(&cfg)).is_ok());
        let err = check_fingerprint(&cfg, warm_fingerprint(&cfg) ^ 1).unwrap_err();
        assert!(matches!(err, CkptError::FingerprintMismatch { .. }));
    }

    #[test]
    fn store_meta_fingerprint_covers_every_identity_field() {
        let cfg = MachineConfig::eight_way();
        let meta = StoreMeta {
            params: SamplingParams {
                unit_size: 1000,
                detailed_warming: 2000,
                warming: Warming::Functional,
                interval: 37,
                offset: 3,
                max_units: None,
            },
            benchmark: "hashp-2".to_string(),
            scale: 0.25,
            isa: IsaId::Builtin,
        };
        let base = meta.fingerprint(&cfg);
        assert_eq!(base, meta.fingerprint(&cfg), "fingerprint is deterministic");

        let mut other_bench = meta.clone();
        other_bench.benchmark = "hashp-3".to_string();
        assert_ne!(base, other_bench.fingerprint(&cfg));

        let mut other_scale = meta.clone();
        other_scale.scale = 0.5;
        assert_ne!(base, other_scale.fingerprint(&cfg));

        let mut other_interval = meta.clone();
        other_interval.params.interval = 38;
        assert_ne!(base, other_interval.fingerprint(&cfg));

        let mut capped = meta.clone();
        capped.params.max_units = Some(12);
        assert_ne!(base, capped.fingerprint(&cfg));

        assert_ne!(base, meta.fingerprint(&MachineConfig::sixteen_way()));

        // Pipeline-core-only differences share the fingerprint — the
        // warm-once/replay-many-configs contract carries over.
        let mut narrow = cfg.clone();
        narrow.issue_width = 2;
        assert_eq!(base, meta.fingerprint(&narrow));
    }

    #[test]
    fn read_store_meta_peeks_the_header_without_a_machine() {
        let cfg = MachineConfig::eight_way();
        let meta = StoreMeta {
            params: SamplingParams {
                unit_size: 500,
                detailed_warming: 1000,
                warming: Warming::Functional,
                interval: 11,
                offset: 0,
                max_units: None,
            },
            benchmark: "loopy-1".to_string(),
            scale: 0.1,
            isa: IsaId::Builtin,
        };
        let path = std::env::temp_dir().join(format!(
            "smarts-ckpt-peek-{}-{:x}.ckpt",
            std::process::id(),
            meta.fingerprint(&cfg)
        ));
        let writer = CkptWriter::create(&path, &cfg, &meta).unwrap();
        assert_eq!(writer.fingerprint(), warm_fingerprint(&cfg));
        writer.finish().unwrap();
        let (found, peeked) = read_store_meta(&path).unwrap();
        assert_eq!(found, warm_fingerprint(&cfg));
        assert_eq!(peeked, meta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_round_trips() {
        let meta = StoreMeta {
            params: SamplingParams {
                unit_size: 1000,
                detailed_warming: 2000,
                warming: Warming::Functional,
                interval: 37,
                offset: 3,
                max_units: Some(12),
            },
            benchmark: "hashp-2".to_string(),
            scale: 0.25,
            isa: IsaId::Builtin,
        };
        let bytes = encode_header(0xDEAD_BEEF, &meta);
        assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
        let mut cursor = &bytes[..];
        let (fp, decoded) = decode_header(&mut cursor).unwrap();
        assert_eq!(fp, 0xDEAD_BEEF);
        assert_eq!(decoded, meta);
    }

    #[test]
    fn footer_is_a_pure_function_of_the_offsets() {
        let offsets = [100u64, 250, 4000];
        let a = encode_footer(&offsets);
        assert_eq!(a, encode_footer(&offsets));
        assert_eq!(&a[..4], &[0xFF; 4], "the marker no record length can equal");
        assert_eq!(&a[a.len() - 8..], &INDEX_MAGIC);
        let footer_len =
            u64::from_le_bytes(a[a.len() - 16..a.len() - 8].try_into().unwrap()) as usize;
        assert_eq!(footer_len, a.len() - 16);
        assert_ne!(a, encode_footer(&[100u64, 250]));
    }

    #[test]
    fn v3_header_round_trips_the_isa_tag() {
        let mut meta = StoreMeta {
            params: SamplingParams {
                unit_size: 1000,
                detailed_warming: 2000,
                warming: Warming::Functional,
                interval: 37,
                offset: 3,
                max_units: Some(12),
            },
            benchmark: "hashp-2".to_string(),
            scale: 0.25,
            isa: IsaId::Risc,
        };
        let mut lens = Vec::new();
        for isa in [IsaId::Builtin, IsaId::Risc, IsaId::Trace] {
            meta.isa = isa;
            let bytes = encode_header(0xDEAD_BEEF, &meta);
            assert_eq!(bytes[12], isa.tag());
            let mut cursor = &bytes[..];
            let (fp, decoded) = decode_header(&mut cursor).unwrap();
            assert_eq!(fp, 0xDEAD_BEEF);
            assert_eq!(decoded, meta);
            lens.push(bytes.len());
        }
        // Every frontend writes the same layout; only the tag differs.
        assert!(lens.iter().all(|&len| len == lens[0]));
    }

    #[test]
    fn fingerprint_folds_the_frontend() {
        let cfg = MachineConfig::eight_way();
        let mut meta = StoreMeta {
            params: SamplingParams {
                unit_size: 1000,
                detailed_warming: 2000,
                warming: Warming::Functional,
                interval: 37,
                offset: 3,
                max_units: None,
            },
            benchmark: "loopy-1".to_string(),
            scale: 0.5,
            isa: IsaId::Builtin,
        };
        let builtin = meta.fingerprint(&cfg);
        meta.isa = IsaId::Risc;
        let risc = meta.fingerprint(&cfg);
        meta.isa = IsaId::Trace;
        let trace = meta.fingerprint(&cfg);
        assert_ne!(builtin, risc);
        assert_ne!(builtin, trace);
        assert_ne!(risc, trace);
    }

    #[test]
    fn header_crc_catches_flips() {
        let meta = StoreMeta {
            params: SamplingParams {
                unit_size: 1000,
                detailed_warming: 2000,
                warming: Warming::None,
                interval: 5,
                offset: 0,
                max_units: None,
            },
            benchmark: "loopy-1".to_string(),
            scale: 1.0,
            isa: IsaId::Builtin,
        };
        let mut bytes = encode_header(7, &meta);
        let flip = bytes.len() / 2;
        bytes[flip] ^= 0x40;
        let mut cursor = &bytes[..];
        assert!(matches!(
            decode_header(&mut cursor),
            Err(CkptError::HeaderCorrupted)
        ));
    }
}
