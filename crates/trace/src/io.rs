//! A compact binary on-disk format for reference traces.
//!
//! The paper generated traces with Shade and stored sampled trace files;
//! this module plays the same role for our synthetic traces so expensive
//! workload generation can be done once and replayed many times.
//!
//! A trace file is a 16-byte header (`b"SSTR"` magic, `u32` version 2,
//! `u64` record count, little-endian) followed by one varint-encoded
//! record per reference: the kind plus the zigzag-encoded address delta
//! from the previous reference of that kind ([`write_trace`] /
//! [`read_trace`]). Reference streams are dominated by small per-kind
//! strides, so this typically shrinks traces 3–6× against eight bytes
//! per reference, with no loss.
//!
//! Readers and writers take `R: Read` / `W: Write` by value; pass `&mut r`
//! to keep using the underlying stream afterwards.
//!
//! # Example
//!
//! ```
//! use streamsim_trace::{Access, Addr};
//! use streamsim_trace::io::{read_trace, write_trace};
//!
//! # fn main() -> std::io::Result<()> {
//! let trace = vec![Access::load(Addr::new(64)), Access::store(Addr::new(96))];
//! let mut buf = Vec::new();
//! write_trace(&mut buf, &trace)?;
//! assert_eq!(read_trace(&buf[..])?, trace);
//! # Ok(())
//! # }
//! ```

use std::io::{self, Read, Write};

use crate::{Access, AccessKind, Addr};

const MAGIC: [u8; 4] = *b"SSTR";
/// Version 1 was a fixed-width raw format, since retired; files keep
/// the version-2 tag of the delta format so existing traces still read.
const VERSION: u32 = 2;

/// Records pre-allocated from the header's count. The count comes from
/// the file, so a larger claim grows the vector only as records
/// actually arrive.
const PREALLOC_RECORDS: u64 = 1 << 16;

/// Zigzag-encodes a signed delta into an unsigned varint payload.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint<W: Write>(writer: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return writer.write_all(&[byte]);
        }
        writer.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint longer than 64 bits",
            ));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes a trace to `writer` in the `SSTR` format.
///
/// Each record is one byte of kind tag followed by the zigzag-varint
/// delta from the previous address *of the same kind* — instruction
/// fetches and data references compress independently, since each is
/// near-sequential on its own.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_trace<W: Write>(mut writer: W, trace: &[Access]) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut last = [0u64; 3];
    for &access in trace {
        let kind = access.kind.as_index();
        let delta = access.addr.raw().wrapping_sub(last[kind]) as i64;
        last[kind] = access.addr.raw();
        writer.write_all(&[kind as u8])?;
        write_varint(&mut writer, zigzag(delta))?;
    }
    writer.flush()
}

/// Reads a complete trace from `reader`.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a bad magic, version or
/// kind tag, [`io::ErrorKind::UnexpectedEof`] if the stream ends before
/// the header's record count is read, and propagates underlying I/O
/// errors.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<Vec<Access>> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a streamsim trace (bad magic)",
        ));
    }
    let mut version = [0u8; 4];
    reader.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let mut count = [0u8; 8];
    reader.read_exact(&mut count)?;
    let count = u64::from_le_bytes(count);
    let mut trace = Vec::with_capacity(count.min(PREALLOC_RECORDS) as usize);
    let mut last = [0u64; 3];
    for _ in 0..count {
        let mut tag = [0u8; 1];
        reader.read_exact(&mut tag)?;
        let kind = match tag[0] {
            0 => AccessKind::Load,
            1 => AccessKind::Store,
            2 => AccessKind::IFetch,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("invalid access kind tag {other}"),
                ))
            }
        };
        let delta = unzigzag(read_varint(&mut reader)?);
        let addr = last[kind.as_index()].wrapping_add(delta as u64);
        last[kind.as_index()] = addr;
        trace.push(Access::new(Addr::new(addr), kind));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<Access> {
        vec![
            Access::load(Addr::new(0)),
            Access::store(Addr::new(0xdead_beef)),
            Access::ifetch(Addr::new(0x4000)),
            Access::load(Addr::new(u64::MAX)),
        ]
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    }

    #[test]
    fn roundtrip_empty() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), Vec::<Access>::new());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE\0\0\0\0\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_version() {
        for version in [1u8, 99] {
            let mut buf = Vec::new();
            write_trace(&mut buf, &[]).unwrap();
            buf[4] = version;
            let err = read_trace(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
        }
    }

    #[test]
    fn rejects_truncated_records() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn rejects_invalid_kind_tag() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[Access::load(Addr::new(8))]).unwrap();
        buf[16] = 7; // corrupt the kind byte
        let err = read_trace(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hostile_record_count_fails_without_allocating_for_it() {
        // A bare header claiming 2^40 records: pre-allocating for the
        // claim would abort the process; the reader must instead run out
        // of records and return an error.
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_trace(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn compression_shrinks_sequential_traces() {
        let trace: Vec<Access> = (0..10_000u64)
            .map(|i| Access::load(Addr::new(0x1000_0000 + i * 8)))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert!(
            buf.len() * 3 < trace.len() * 8,
            "{} bytes for {} references",
            buf.len(),
            trace.len()
        );
        assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    }

    #[test]
    fn per_kind_deltas_keep_interleaved_streams_small() {
        // Interleave ifetches with data: per-kind deltas stay tiny even
        // though the combined stream jumps between segments.
        let mut trace = Vec::new();
        for i in 0..5_000u64 {
            trace.push(Access::load(Addr::new(0x1000_0000 + i * 8)));
            trace.push(Access::ifetch(Addr::new(0x40_0000 + (i % 64) * 32)));
        }
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert!(buf.len() < trace.len() * 3, "{}", buf.len());
        assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
    }

    #[test]
    fn header_is_sixteen_bytes() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(buf.len(), 16);
    }
}
