//! Output checks, run outside every timed window.

use std::fs::File;
use std::path::Path;

use alphasort_dmgen::{parse_var_record, validate_reader, Checksum, KEY_LEN, RECORD_LEN};

/// A Datamation output file must be a sorted permutation of the input
/// whose generator fingerprint is `expected`. Returns the record count.
pub fn datamation_file(path: &Path, expected: Checksum) -> Result<u64, String> {
    let mut f = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    match validate_reader(&mut f, expected) {
        Ok(Ok(report)) => Ok(report.records),
        Ok(Err(e)) => Err(format!("{}: {e}", path.display())),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// The Datamation oracle: `input`'s records stably sorted by key.
pub fn datamation_oracle(input: &[u8]) -> Vec<u8> {
    let mut recs: Vec<&[u8]> = input.chunks_exact(RECORD_LEN).collect();
    recs.sort_by(|a, b| a[..KEY_LEN].cmp(&b[..KEY_LEN]));
    recs.concat()
}

/// An order-independent fingerprint of a multiset of var-len frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FramePrint {
    /// Frames.
    pub frames: u64,
    /// Bytes over all frames.
    pub bytes: u64,
    /// Wrapping sum of the frames' mixed hashes.
    pub sum: u64,
    /// XOR of the frames' mixed hashes.
    pub xor: u64,
}

impl FramePrint {
    fn add(&mut self, frame: &[u8]) {
        let h = mix(fnv1a(frame));
        self.frames += 1;
        self.bytes += frame.len() as u64;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64's finalizer: spreads FNV's weak high bits.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Walk `data`'s frames in order, returning their fingerprint and whether
/// their keys never decrease.
fn walk_frames(data: &[u8]) -> Result<(FramePrint, bool), String> {
    let mut print = FramePrint::default();
    let mut sorted = true;
    let mut prev: Option<&[u8]> = None;
    let mut off = 0usize;
    while off < data.len() {
        let rec = parse_var_record(&data[off..], off as u64).map_err(|e| e.to_string())?;
        let key = rec.key();
        if prev.is_some_and(|p| p > key) {
            sorted = false;
        }
        prev = Some(key);
        print.add(rec.frame());
        off += rec.len();
    }
    Ok((print, sorted))
}

/// Fingerprint of var-len `input`.
pub fn frame_print(input: &[u8]) -> Result<FramePrint, String> {
    walk_frames(input).map(|(p, _)| p)
}

/// A var-len output must parse, keep keys ascending, and hold exactly the
/// input's frames. Returns the frame count.
pub fn varlen(output: &[u8], expected: FramePrint) -> Result<u64, String> {
    let (print, sorted) = walk_frames(output)?;
    if !sorted {
        return Err("var-len output keys are out of order".into());
    }
    if print != expected {
        return Err(format!(
            "var-len output is not a permutation of the input: {print:?} vs {expected:?}"
        ));
    }
    Ok(print.frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{build_var_record, generate, GenConfig};

    #[test]
    fn varlen_check_catches_order_and_content() {
        let frames: Vec<Vec<u8>> = ["b", "a", "c"]
            .iter()
            .map(|k| build_var_record(k.as_bytes(), b"x"))
            .collect();
        let input = frames.concat();
        let expect = frame_print(&input).unwrap();
        let sorted = [frames[1].clone(), frames[0].clone(), frames[2].clone()].concat();
        assert_eq!(varlen(&sorted, expect), Ok(3));
        assert!(varlen(&input, expect).is_err());
        let lost = [frames[1].clone(), frames[2].clone()].concat();
        assert!(varlen(&lost, expect).is_err());
    }

    #[test]
    fn oracle_is_a_validated_permutation() {
        let (input, checksum) = generate(GenConfig::datamation(500, 3));
        let out = datamation_oracle(&input);
        alphasort_dmgen::validate_records(&out, checksum).unwrap();
    }
}
