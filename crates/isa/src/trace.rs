//! [`TraceIsa`]: a frontend that replays externally produced instruction
//! traces through the unchanged warming/sampling pipeline.
//!
//! A trace file is a versioned, CRC-checked serialization of committed
//! [`ExecRecord`]s — operation, operands, pc, control outcome, and the
//! memory touch if any. "Executing" the trace replays the recorded
//! stream verbatim: the [`TraceCpu`] is just a cursor (position, halted
//! flag, retired count), which is exactly the state a checkpoint needs to
//! resume mid-trace. Because the replayed records are bit-identical to
//! the recorded ones, warming a trace exported from a built-in run
//! produces byte-identical warm state, and sampled replay produces a
//! byte-identical report — the round-trip property the `trace-export`
//! CLI subcommand exists to test.
//!
//! # File format (version 1, little-endian)
//!
//! ```text
//! magic    b"SMARTSTR"                                      8 bytes
//! version  u32                                              4 bytes
//! name_len u32, name bytes (source workload, informational)
//! records  × count:
//!   pc u64 | op u8 | rd u8 | rs1 u8 | rs2 u8 | imm u64
//!   flags u8 (bit0 taken, bit1 mem-present, bit2 mem-is-store)
//!   next_pc u64
//!   [addr u64 | size u8]          only when mem-present
//! trailer  record count u64, crc32 u32
//! ```
//!
//! The CRC covers every byte after the magic up to (and including) the
//! trailer's record count, so truncation, bit corruption, and a wrong
//! count are all detected before any record is replayed.

use crate::crc32::crc32;
use crate::isa::{Isa, IsaId};
use crate::{ExecRecord, Inst, IsaError, MemAccess, Memory, OpClass, Opcode};
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"SMARTSTR";
/// Current trace format version.
pub const TRACE_VERSION: u32 = 1;
/// Flag bits in each record's flags byte.
const FLAG_TAKEN: u8 = 1;
const FLAG_MEM: u8 = 2;
const FLAG_STORE: u8 = 4;
/// Trailer size: record count (8) + CRC (4).
const TRAILER_BYTES: usize = 12;
/// Refuse to load traces whose record count is obviously corrupt.
const MAX_RECORDS: u64 = 1 << 40;

/// Error loading or validating a trace file.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An I/O error reading or writing the file.
    Io(std::io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file is structurally invalid (bad CRC, wrong record count,
    /// undecodable record, truncated stream).
    Corrupted(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "trace format version {v} is not supported")
            }
            TraceError::Corrupted(detail) => write!(f, "trace corrupted: {detail}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Every opcode in declaration order; a tag is an index into this table.
/// Part of the trace format — append only, never reorder.
#[rustfmt::skip]
const OPCODES: [Opcode; 62] = {
    use Opcode::*;
    [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
        Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Li,
        FAdd, FSub, FMul, FDiv, FSqrt, FMin, FMax, FAbs, FNeg,
        FCvtIf, FCvtFi, FMvIf, FMvFi, FLi, FLt, FLe, FEq,
        Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld, Sb, Sh, Sw, Sd, FLd, FSd,
        Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Jalr, Nop, Halt,
    ]
};

fn opcode_tag(op: Opcode) -> u8 {
    // The table is tiny and this only runs on the export path.
    OPCODES
        .iter()
        .position(|&o| o == op)
        .expect("every opcode is in the table") as u8
}

fn opcode_from_tag(tag: u8) -> Option<Opcode> {
    OPCODES.get(tag as usize).copied()
}

fn encode_record(rec: &ExecRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&rec.pc.to_le_bytes());
    out.push(opcode_tag(rec.inst.op));
    out.push(rec.inst.rd);
    out.push(rec.inst.rs1);
    out.push(rec.inst.rs2);
    out.extend_from_slice(&(rec.inst.imm as u64).to_le_bytes());
    let mut flags = 0;
    if rec.taken {
        flags |= FLAG_TAKEN;
    }
    if let Some(mem) = &rec.mem {
        flags |= FLAG_MEM;
        if mem.is_store {
            flags |= FLAG_STORE;
        }
    }
    out.push(flags);
    out.extend_from_slice(&rec.next_pc.to_le_bytes());
    if let Some(mem) = &rec.mem {
        out.extend_from_slice(&mem.addr.to_le_bytes());
        out.push(mem.size);
    }
}

/// Incremental little-endian reader over a byte region.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.bytes.split_at_checked(N)?;
        self.bytes = rest;
        Some(head.try_into().expect("split length"))
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }

    fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_le_bytes)
    }
}

fn decode_record(r: &mut Reader<'_>) -> Option<ExecRecord> {
    let pc = r.u64()?;
    let op = opcode_from_tag(r.u8()?)?;
    let rd = r.u8()?;
    let rs1 = r.u8()?;
    let rs2 = r.u8()?;
    let imm = r.u64()? as i64;
    let flags = r.u8()?;
    if flags & !(FLAG_TAKEN | FLAG_MEM | FLAG_STORE) != 0 {
        return None;
    }
    let next_pc = r.u64()?;
    let mem = if flags & FLAG_MEM != 0 {
        let addr = r.u64()?;
        let size = r.u8()?;
        if !matches!(size, 1 | 2 | 4 | 8) {
            return None;
        }
        Some(MemAccess {
            addr,
            size,
            is_store: flags & FLAG_STORE != 0,
        })
    } else if flags & FLAG_STORE != 0 {
        return None;
    } else {
        None
    };
    Some(ExecRecord::new(
        pc,
        Inst::new(op, rd, rs1, rs2, imm),
        mem,
        flags & FLAG_TAKEN != 0,
        next_pc,
    ))
}

/// Serializes `records` as a version-1 trace file body (magic through
/// trailer). `name` records the source workload for diagnostics.
pub fn encode_trace(name: &str, records: &[ExecRecord]) -> Vec<u8> {
    let mut body = Vec::with_capacity(32 + records.len() * 32);
    body.extend_from_slice(&TRACE_MAGIC);
    body.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    body.extend_from_slice(&(name.len() as u32).to_le_bytes());
    body.extend_from_slice(name.as_bytes());
    for rec in records {
        encode_record(rec, &mut body);
    }
    body.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let crc = crc32(&body[TRACE_MAGIC.len()..]);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Writes `records` to `path` in the trace file format.
///
/// # Errors
///
/// Propagates I/O errors; the file is written atomically enough for
/// tests (single `write_all` of the encoded body).
pub fn write_trace(path: &Path, name: &str, records: &[ExecRecord]) -> Result<(), TraceError> {
    let body = encode_trace(name, records);
    let mut file = std::fs::File::create(path)?;
    file.write_all(&body)?;
    file.flush()?;
    Ok(())
}

/// A loaded instruction trace: the replay "program" of [`TraceIsa`].
///
/// Records are held behind an `Arc`, so cloning a program (every engine
/// snapshot holds one) is a pointer bump.
#[derive(Debug, Clone)]
pub struct TraceProgram {
    name: String,
    records: Arc<[ExecRecord]>,
}

impl TraceProgram {
    /// Wraps in-memory records as a trace program.
    pub fn from_records(name: &str, records: Vec<ExecRecord>) -> Self {
        TraceProgram {
            name: name.to_string(),
            records: records.into(),
        }
    }

    /// Parses a trace file body (as produced by [`encode_trace`]).
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for
    /// foreign files, [`TraceError::Corrupted`] for CRC mismatches,
    /// truncation, record-count mismatches, or undecodable records.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let corrupted = |detail: &str| TraceError::Corrupted(detail.to_string());
        let after_magic = bytes
            .strip_prefix(&TRACE_MAGIC[..])
            .ok_or(TraceError::BadMagic)?;
        if after_magic.len() < 4 + 4 + TRAILER_BYTES {
            return Err(corrupted("file shorter than its fixed fields"));
        }
        let (checked, crc_bytes) = after_magic.split_at(after_magic.len() - 4);
        let want_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(checked) != want_crc {
            return Err(corrupted("crc mismatch"));
        }
        let mut r = Reader { bytes: checked };
        let version = u32::from_le_bytes(r.take::<4>().ok_or_else(|| corrupted("version"))?);
        if version == 0 || version > TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let name_len =
            u32::from_le_bytes(r.take::<4>().ok_or_else(|| corrupted("name length"))?) as usize;
        if name_len > r.bytes.len().saturating_sub(8) {
            return Err(corrupted("name length exceeds file"));
        }
        let (name_bytes, rest) = r.bytes.split_at(name_len);
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| corrupted("name is not utf-8"))?
            .to_string();
        r.bytes = rest;
        // The trailer count sits in the last 8 checked bytes.
        if r.bytes.len() < 8 {
            return Err(corrupted("missing record count"));
        }
        let (record_region, count_bytes) = r.bytes.split_at(r.bytes.len() - 8);
        let count = u64::from_le_bytes(count_bytes.try_into().expect("8 bytes"));
        if count > MAX_RECORDS {
            return Err(corrupted("record count implausible"));
        }
        let mut r = Reader {
            bytes: record_region,
        };
        let mut records = Vec::with_capacity(count.min(1 << 20) as usize);
        for index in 0..count {
            let rec = decode_record(&mut r)
                .ok_or_else(|| corrupted(&format!("record {index} does not decode")))?;
            records.push(rec);
        }
        if !r.bytes.is_empty() {
            return Err(corrupted("trailing bytes after the last record"));
        }
        Ok(TraceProgram {
            name,
            records: records.into(),
        })
    }

    /// Loads and validates a trace file.
    ///
    /// # Errors
    ///
    /// See [`TraceProgram::decode`], plus I/O errors.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }

    /// The recorded source-workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded stream.
    pub fn records(&self) -> &[ExecRecord] {
        &self.records
    }
}

/// Replay cursor over a [`TraceProgram`]: the architectural "CPU" of the
/// trace frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCpu {
    pos: u64,
    halted: bool,
    retired: u64,
}

impl TraceCpu {
    /// Words [`TraceIsa::save_state`] appends: position, halted flag,
    /// retired count.
    pub const STATE_WORDS: usize = 3;

    /// Current position in the trace (records consumed).
    pub fn pos(&self) -> u64 {
        self.pos
    }
}

/// The trace-import frontend (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceIsa;

impl Isa for TraceIsa {
    type Cpu = TraceCpu;
    type Program = TraceProgram;

    const ID: IsaId = IsaId::Trace;

    #[inline]
    fn new_cpu() -> TraceCpu {
        TraceCpu::default()
    }

    #[inline]
    fn halted(cpu: &TraceCpu) -> bool {
        cpu.halted
    }

    #[inline]
    fn retired(cpu: &TraceCpu) -> u64 {
        cpu.retired
    }

    fn save_state(cpu: &TraceCpu, out: &mut Vec<u64>) {
        out.push(cpu.pos);
        out.push(cpu.halted as u64);
        out.push(cpu.retired);
    }

    fn load_state(cpu: &mut TraceCpu, words: &[u64]) -> Option<usize> {
        let words = words.get(..TraceCpu::STATE_WORDS)?;
        cpu.pos = words[0];
        cpu.halted = words[1] != 0;
        cpu.retired = words[2];
        Some(TraceCpu::STATE_WORDS)
    }

    #[inline]
    fn step(
        cpu: &mut TraceCpu,
        program: &TraceProgram,
        _mem: &mut Memory,
    ) -> Result<ExecRecord, IsaError> {
        if cpu.halted {
            return Err(IsaError::Halted);
        }
        let rec = *program
            .records
            .get(cpu.pos as usize)
            .ok_or(IsaError::PcOutOfRange {
                pc: cpu.pos,
                len: program.len(),
            })?;
        cpu.pos += 1;
        cpu.retired += 1;
        if rec.class() == OpClass::Halt {
            cpu.halted = true;
        }
        Ok(rec)
    }

    #[inline]
    fn step_block(
        cpu: &mut TraceCpu,
        program: &TraceProgram,
        _mem: &mut Memory,
        max_insts: u64,
        mut sink: impl FnMut(&ExecRecord),
    ) -> Result<u64, IsaError> {
        let mut executed = 0;
        while executed < max_insts && !cpu.halted {
            let rec = program
                .records
                .get(cpu.pos as usize)
                .ok_or(IsaError::PcOutOfRange {
                    pc: cpu.pos,
                    len: program.len(),
                })?;
            cpu.pos += 1;
            cpu.retired += 1;
            if rec.class() == OpClass::Halt {
                cpu.halted = true;
            }
            sink(rec);
            executed += 1;
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Asm, Cpu};

    fn sample_records() -> Vec<ExecRecord> {
        let mut a = Asm::new();
        a.li(reg::S1, 0x1000_0000);
        a.li(reg::T0, 5);
        let l = a.label();
        a.bind(l).unwrap();
        a.sd(reg::T0, reg::S1, 0);
        a.ld(reg::T1, reg::S1, 0);
        a.addi(reg::T0, reg::T0, -1);
        a.bnez(reg::T0, l);
        a.halt();
        let program = a.finish().unwrap();
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        let mut records = Vec::new();
        while !cpu.halted() {
            records.push(cpu.step(&program, &mut mem).unwrap());
        }
        records
    }

    #[test]
    fn opcode_tags_cover_every_opcode() {
        for (tag, &op) in OPCODES.iter().enumerate() {
            assert_eq!(opcode_tag(op) as usize, tag);
            assert_eq!(opcode_from_tag(tag as u8), Some(op));
        }
        assert_eq!(opcode_from_tag(62), None);
    }

    #[test]
    fn trace_encode_decode_round_trips() {
        let records = sample_records();
        let body = encode_trace("unit-test", &records);
        let program = TraceProgram::decode(&body).expect("valid trace decodes");
        assert_eq!(program.name(), "unit-test");
        assert_eq!(program.records(), &records[..]);
    }

    #[test]
    fn replay_reproduces_the_recorded_stream() {
        let records = sample_records();
        let program = TraceProgram::from_records("t", records.clone());
        let mut cpu = TraceIsa::new_cpu();
        let mut mem = Memory::new();
        let mut replayed = Vec::new();
        while !TraceIsa::halted(&cpu) {
            replayed.push(TraceIsa::step(&mut cpu, &program, &mut mem).unwrap());
        }
        assert_eq!(replayed, records);
        assert_eq!(TraceIsa::retired(&cpu), records.len() as u64);
        assert!(matches!(
            TraceIsa::step(&mut cpu, &program, &mut mem),
            Err(IsaError::Halted)
        ));

        // Cursor state round-trips through save/load and resumes exactly.
        let mut words = Vec::new();
        TraceIsa::save_state(&cpu, &mut words);
        assert_eq!(words.len(), TraceCpu::STATE_WORDS);
        let mut restored = TraceIsa::new_cpu();
        assert_eq!(
            TraceIsa::load_state(&mut restored, &words),
            Some(TraceCpu::STATE_WORDS)
        );
        assert_eq!(restored, cpu);
    }

    #[test]
    fn mid_trace_resume_is_exact() {
        let records = sample_records();
        let program = TraceProgram::from_records("t", records.clone());
        let mut cpu = TraceIsa::new_cpu();
        let mut mem = Memory::new();
        for _ in 0..3 {
            TraceIsa::step(&mut cpu, &program, &mut mem).unwrap();
        }
        let mut words = Vec::new();
        TraceIsa::save_state(&cpu, &mut words);
        let mut resumed = TraceIsa::new_cpu();
        TraceIsa::load_state(&mut resumed, &words).unwrap();
        let a = TraceIsa::step(&mut cpu, &program, &mut mem).unwrap();
        let b = TraceIsa::step(&mut resumed, &program, &mut mem).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, records[3]);
    }

    #[test]
    fn corrupt_and_truncated_traces_are_rejected() {
        let records = sample_records();
        let body = encode_trace("t", &records);

        // Bad magic.
        let mut bad = body.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            TraceProgram::decode(&bad),
            Err(TraceError::BadMagic)
        ));

        // Every single-byte corruption past the magic must be caught by
        // the CRC (or, for the CRC bytes themselves, by the mismatch).
        let step = (body.len() / 37).max(1);
        for index in (TRACE_MAGIC.len()..body.len()).step_by(step) {
            let mut bad = body.clone();
            bad[index] ^= 0x40;
            assert!(
                TraceProgram::decode(&bad).is_err(),
                "flipped byte {index} must not decode"
            );
        }

        // Truncation at every length short of the full file.
        for len in 0..body.len() {
            assert!(
                TraceProgram::decode(&body[..len]).is_err(),
                "truncated to {len} bytes must not decode"
            );
        }

        // Unsupported version (with a recomputed, valid CRC).
        let mut versioned = body.clone();
        versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
        let crc_at = versioned.len() - 4;
        let crc = crc32(&versioned[TRACE_MAGIC.len()..crc_at]);
        versioned[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            TraceProgram::decode(&versioned),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn write_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("smarts-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.trace");
        let records = sample_records();
        write_trace(&path, "disk-test", &records).unwrap();
        let program = TraceProgram::load(&path).unwrap();
        assert_eq!(program.name(), "disk-test");
        assert_eq!(program.records(), &records[..]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
