//! Saving and loading parameter snapshots: JSON files for human-readable
//! checkpoints, and a checksummed binary format (`DFWT`) whose float
//! payload is raw little-endian `f32` bits — bit-exact across a save/load
//! round trip, which is what the serving snapshot registry requires (a
//! hot-swapped generation must score identically to the store it was
//! published from).

use crate::hash::fnv1a64;
use crate::params::{ParamSnapshot, ParamStore, SavedParam};
use std::path::Path;

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    Format(String),
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes a parameter snapshot to a JSON file.
pub fn save_params(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let snap = store.snapshot();
    let json = serde_json::to_string(&snap).map_err(|e| CheckpointError::Format(e.to_string()))?;
    std::fs::write(path, json)?;
    Ok(())
}

/// Loads a snapshot from a JSON file into an identically-built store.
pub fn load_params(store: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let json = std::fs::read_to_string(path)?;
    let snap: ParamSnapshot =
        serde_json::from_str(&json).map_err(|e| CheckpointError::Format(e.to_string()))?;
    store.restore(&snap).map_err(CheckpointError::Mismatch)
}

// ---------------------------------------------------------------------
// Binary weight snapshots (DFWT)
// ---------------------------------------------------------------------

/// Magic bytes opening every binary weight snapshot.
const DFWT_MAGIC: &[u8; 4] = b"DFWT";
/// Binary snapshot format version.
const DFWT_VERSION: u32 = 1;

/// Encodes a snapshot into the `DFWT` binary layout:
///
/// ```text
/// "DFWT" [version u32] [num_params u32]
///   per param: [name_len u32][name utf-8][ndim u32][dims u64...]
///              [f32 data, little-endian bits]
/// [fnv1a64 over everything above, u64]
/// ```
///
/// Float values are written as their raw bits, so decoding reproduces every
/// scalar bit-exactly (including subnormals, signed zeros and NaN payloads).
pub fn encode_snapshot(snap: &ParamSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(DFWT_MAGIC);
    out.extend_from_slice(&DFWT_VERSION.to_le_bytes());
    out.extend_from_slice(&(snap.params.len() as u32).to_le_bytes());
    for p in &snap.params {
        out.extend_from_slice(&(p.name.len() as u32).to_le_bytes());
        out.extend_from_slice(p.name.as_bytes());
        out.extend_from_slice(&(p.shape.len() as u32).to_le_bytes());
        for &d in &p.shape {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in &p.data {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Bounds-checked cursor reads for [`decode_snapshot`]: every length field
/// is validated against the remaining buffer before use, so a truncated or
/// hostile header can never cause a huge allocation or a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Format("snapshot truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Decodes a `DFWT` buffer, verifying magic, version and checksum.
pub fn decode_snapshot(bytes: &[u8]) -> Result<ParamSnapshot, CheckpointError> {
    if bytes.len() < DFWT_MAGIC.len() + 4 + 4 + 8 {
        return Err(CheckpointError::Format("snapshot too short".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if fnv1a64(body) != sum {
        return Err(CheckpointError::Format("snapshot checksum mismatch".into()));
    }
    let mut c = Cursor { buf: body, pos: 0 };
    if c.take(4)? != DFWT_MAGIC {
        return Err(CheckpointError::Format("bad snapshot magic".into()));
    }
    let version = c.u32()?;
    if version != DFWT_VERSION {
        return Err(CheckpointError::Format(format!("unsupported snapshot version {version}")));
    }
    let count = c.u32()? as usize;
    let mut params = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let name_len = c.u32()? as usize;
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| CheckpointError::Format("param name is not utf-8".into()))?
            .to_string();
        let ndim = c.u32()? as usize;
        if ndim > 8 {
            return Err(CheckpointError::Format(format!("implausible rank {ndim}")));
        }
        let mut shape = Vec::with_capacity(ndim);
        let mut numel: u64 = 1;
        for _ in 0..ndim {
            let d = c.u64()?;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| CheckpointError::Format("dim overflow".into()))?;
            shape.push(d as usize);
        }
        // The remaining-buffer check inside `take` rejects element counts
        // larger than the file before anything is allocated.
        let raw = c.take(
            (numel as usize)
                .checked_mul(4)
                .ok_or_else(|| CheckpointError::Format("element count overflow".into()))?,
        )?;
        let data = raw
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
            .collect();
        params.push(SavedParam { name, shape, data });
    }
    if c.pos != body.len() {
        return Err(CheckpointError::Format("trailing bytes after last param".into()));
    }
    Ok(ParamSnapshot { params })
}

/// Writes a store's snapshot in the binary `DFWT` format.
pub fn save_params_bin(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    std::fs::write(path, encode_snapshot(&store.snapshot()))?;
    Ok(())
}

/// Loads a binary `DFWT` snapshot into an identically-built store.
pub fn load_params_bin(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let bytes = std::fs::read(path)?;
    let snap = decode_snapshot(&bytes)?;
    store.restore(&snap).map_err(CheckpointError::Mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng;
    use crate::tensor::Tensor;

    #[test]
    fn save_load_round_trip() {
        let mut r = rng(1);
        let mut a = ParamStore::new();
        let w = a.add("w", Tensor::randn(&[3, 2], &mut r));
        let dir = std::env::temp_dir().join("dftensor_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        save_params(&a, &path).unwrap();

        let mut b = ParamStore::new();
        let wb = b.add("w", Tensor::zeros(&[3, 2]));
        load_params(&mut b, &path).unwrap();
        assert!(b.value(wb).allclose(a.value(w), 0.0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let mut s = ParamStore::new();
        let err = load_params(&mut s, "/definitely/not/here.json").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    /// The binary format must reproduce every stored scalar **bit-exactly**
    /// — including values JSON text round-trips mangle (subnormals, signed
    /// zero, NaN payloads) — because the serving registry hot-swaps these
    /// snapshots into live scorers and the determinism lock compares bits.
    #[test]
    fn binary_round_trip_is_bit_exact() {
        let mut r = rng(7);
        let mut a = ParamStore::new();
        a.add("w", Tensor::randn(&[4, 3], &mut r));
        a.add(
            "edge_cases",
            Tensor::from_slice(&[
                0.0,
                -0.0,
                f32::MIN_POSITIVE / 2.0, // subnormal
                f32::MAX,
                f32::MIN_POSITIVE,
                f32::from_bits(0x7fc0_1234), // NaN with payload
                1.0e-40,
                -3.402_823e38,
            ]),
        );
        a.add("b", Tensor::randn(&[5], &mut r));

        let dir = std::env::temp_dir().join("dftensor_bin_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.dfwt");
        save_params_bin(&a, &path).unwrap();

        let mut b = ParamStore::new();
        b.add("w", Tensor::zeros(&[4, 3]));
        b.add("edge_cases", Tensor::zeros(&[8]));
        b.add("b", Tensor::zeros(&[5]));
        load_params_bin(&mut b, &path).unwrap();
        std::fs::remove_file(path).ok();

        for ((_, ea), (_, eb)) in a.iter().zip(b.iter()) {
            assert_eq!(ea.name, eb.name);
            assert_eq!(ea.value.shape(), eb.value.shape());
            for (x, y) in ea.value.data().iter().zip(eb.value.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "param {} drifted", ea.name);
            }
        }
    }

    #[test]
    fn binary_encode_decode_in_memory() {
        let mut p = ParamStore::new();
        p.add("w", Tensor::from_slice(&[1.5, -2.25, 3.125]));
        let snap = p.snapshot();
        let decoded = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(decoded.params.len(), 1);
        assert_eq!(decoded.params[0].name, "w");
        assert_eq!(decoded.params[0].data, snap.params[0].data);
    }

    #[test]
    fn binary_corruption_is_rejected() {
        let mut p = ParamStore::new();
        p.add("w", Tensor::from_slice(&[1.0, 2.0]));
        let mut bytes = encode_snapshot(&p.snapshot());
        // Flip one payload bit: the checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(decode_snapshot(&bytes), Err(CheckpointError::Format(_))));
        // Truncation is also a format error, not a panic.
        let ok = encode_snapshot(&p.snapshot());
        assert!(matches!(decode_snapshot(&ok[..ok.len() - 9]), Err(CheckpointError::Format(_))));
    }

    /// A hostile length field must fail cleanly before allocating.
    #[test]
    fn binary_hostile_lengths_are_rejected() {
        let mut p = ParamStore::new();
        p.add("w", Tensor::from_slice(&[1.0]));
        let mut bytes = encode_snapshot(&p.snapshot());
        // Overwrite the dim (u64 at magic+ver+count+namelen+"w"+ndim) with
        // an enormous value and re-stamp the checksum so only the bounds
        // check can reject it.
        let dim_off = 4 + 4 + 4 + 4 + 1 + 4;
        bytes[dim_off..dim_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode_snapshot(&bytes), Err(CheckpointError::Format(_))));
    }
}
