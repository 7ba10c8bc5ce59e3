//! The regression corpus: shrunk counterexamples persisted as text files.
//!
//! Every failure the harness finds is reduced ([`crate::shrink()`]) and
//! written as a `.case` file under `tests/corpus/`, and CI replays the
//! whole directory on every run — a bug found once by fuzzing is guarded
//! forever by a deterministic test.
//!
//! The format is deliberately line-oriented and diff-friendly:
//!
//! ```text
//! # free-form note (the original error)
//! seed 42
//! case 17
//! passes NOP,CP,RA,ASST,MEM,CSE,DCE
//! entries 3735928559,195894762
//! blocks 0
//! uop st dst=- a=ESP b=EAX imm=-8 scale=1 cc=- wf=0 expect=0
//! uop ld dst=ECX a=ESP b=- imm=-8 scale=1 cc=- wf=0 expect=0
//! ```
//!
//! `seed`/`case` record provenance (how the case was originally found);
//! `passes` and `entries` are what [`replay`] actually re-runs.

use crate::oracle::{check_frame, CheckError};
use replay_core::PassId;
use replay_frame::{ControlExpectation, Frame, FrameId};
use replay_uop::{ArchReg, Cond, Opcode, Uop};
use std::path::{Path, PathBuf};

/// One persisted counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCase {
    /// Free-form note (typically the original error message).
    pub note: String,
    /// Master seed of the run that found the case.
    pub seed: u64,
    /// Case index within that run.
    pub case_index: u64,
    /// The pass sequence that miscompiled the frame.
    pub passes: Vec<PassId>,
    /// Entry-state seeds to probe from.
    pub entry_seeds: Vec<u32>,
    /// The (shrunk) frame.
    pub frame: Frame,
}

fn reg_to_text(r: Option<ArchReg>) -> &'static str {
    r.map_or("-", |r| r.name())
}

fn reg_from_text(s: &str) -> Result<Option<ArchReg>, String> {
    if s == "-" {
        return Ok(None);
    }
    ArchReg::ALL
        .into_iter()
        .find(|r| r.name() == s)
        .map(Some)
        .ok_or_else(|| format!("unknown register {s:?}"))
}

fn opcode_from_text(s: &str) -> Result<Opcode, String> {
    Opcode::ALL
        .into_iter()
        .find(|o| o.mnemonic() == s)
        .ok_or_else(|| format!("unknown opcode {s:?}"))
}

fn cond_from_text(s: &str) -> Result<Option<Cond>, String> {
    if s == "-" {
        return Ok(None);
    }
    Cond::ALL
        .into_iter()
        .find(|c| c.mnemonic() == s)
        .map(Some)
        .ok_or_else(|| format!("unknown condition {s:?}"))
}

/// Renders a case in the corpus text format.
pub fn to_text(case: &CorpusCase) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for line in case.note.lines() {
        let _ = writeln!(s, "# {line}");
    }
    let _ = writeln!(s, "seed {}", case.seed);
    let _ = writeln!(s, "case {}", case.case_index);
    let _ = writeln!(
        s,
        "passes {}",
        case.passes
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = writeln!(
        s,
        "entries {}",
        case.entry_seeds
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = writeln!(
        s,
        "blocks {}",
        case.frame
            .block_starts
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let expect: Vec<usize> = case
        .frame
        .expectations
        .iter()
        .map(|e| e.uop_index)
        .collect();
    for (i, u) in case.frame.uops.iter().enumerate() {
        let _ = writeln!(
            s,
            "uop {} dst={} a={} b={} imm={} scale={} cc={} wf={} expect={}",
            u.op.mnemonic(),
            reg_to_text(u.dst),
            reg_to_text(u.src_a),
            reg_to_text(u.src_b),
            u.imm,
            u.scale,
            u.cc.map_or("-".to_string(), |c| c.mnemonic().to_string()),
            u.writes_flags as u8,
            expect.contains(&i) as u8,
        );
    }
    s
}

/// Parses the corpus text format back into a case.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn from_text(text: &str) -> Result<CorpusCase, String> {
    let mut note = String::new();
    let mut seed = 0u64;
    let mut case_index = 0u64;
    let mut passes: Vec<PassId> = Vec::new();
    let mut entry_seeds: Vec<u32> = Vec::new();
    let mut block_starts: Vec<usize> = vec![0];
    let mut uops: Vec<Uop> = Vec::new();
    let mut expectations: Vec<ControlExpectation> = Vec::new();

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |m: String| format!("line {}: {m}", ln + 1);
        if let Some(rest) = line.strip_prefix('#') {
            if !note.is_empty() {
                note.push('\n');
            }
            note.push_str(rest.trim());
        } else if let Some(rest) = line.strip_prefix("seed ") {
            seed = rest
                .trim()
                .parse()
                .map_err(|e| err(format!("bad seed: {e}")))?;
        } else if let Some(rest) = line.strip_prefix("case ") {
            case_index = rest
                .trim()
                .parse()
                .map_err(|e| err(format!("bad case: {e}")))?;
        } else if let Some(rest) = line.strip_prefix("passes ") {
            passes = rest
                .split(',')
                .map(|p| {
                    PassId::from_name(p.trim()).ok_or_else(|| err(format!("unknown pass {p:?}")))
                })
                .collect::<Result<_, _>>()?;
        } else if let Some(rest) = line.strip_prefix("entries ") {
            entry_seeds = rest
                .split(',')
                .map(|e| {
                    e.trim()
                        .parse()
                        .map_err(|_| err(format!("bad entry {e:?}")))
                })
                .collect::<Result<_, _>>()?;
        } else if let Some(rest) = line.strip_prefix("blocks ") {
            block_starts = rest
                .split(',')
                .map(|b| {
                    b.trim()
                        .parse()
                        .map_err(|_| err(format!("bad block {b:?}")))
                })
                .collect::<Result<_, _>>()?;
        } else if let Some(rest) = line.strip_prefix("uop ") {
            let mut parts = rest.split_whitespace();
            let op = opcode_from_text(parts.next().ok_or_else(|| err("missing opcode".into()))?)
                .map_err(err)?;
            let mut u = Uop::new(op);
            u.x86_addr = 0x1000 + uops.len() as u32;
            let mut expect = false;
            for kv in parts {
                let (key, value) = kv
                    .split_once('=')
                    .ok_or_else(|| err(format!("malformed field {kv:?}")))?;
                match key {
                    "dst" => u.dst = reg_from_text(value).map_err(err)?,
                    "a" => u.src_a = reg_from_text(value).map_err(err)?,
                    "b" => u.src_b = reg_from_text(value).map_err(err)?,
                    "imm" => {
                        u.imm = value
                            .parse()
                            .map_err(|_| err(format!("bad imm {value:?}")))?
                    }
                    "scale" => {
                        u.scale = value
                            .parse()
                            .map_err(|_| err(format!("bad scale {value:?}")))?
                    }
                    "cc" => u.cc = cond_from_text(value).map_err(err)?,
                    "wf" => u.writes_flags = value == "1",
                    "expect" => expect = value == "1",
                    other => return Err(err(format!("unknown field {other:?}"))),
                }
            }
            if expect {
                expectations.push(ControlExpectation {
                    x86_addr: u.x86_addr,
                    expected_next: 0x2000,
                    uop_index: uops.len(),
                });
            }
            uops.push(u);
        } else {
            return Err(err(format!("unrecognized line {line:?}")));
        }
    }

    if uops.is_empty() {
        return Err("case has no uops".into());
    }
    if passes.is_empty() {
        return Err("case has no passes".into());
    }
    if entry_seeds.is_empty() {
        return Err("case has no entries".into());
    }
    let n = uops.len();
    block_starts.retain(|&b| b < n);
    if block_starts.first() != Some(&0) {
        block_starts.insert(0, 0);
    }
    Ok(CorpusCase {
        note,
        seed,
        case_index,
        passes,
        entry_seeds,
        frame: Frame {
            id: FrameId(0),
            start_addr: 0x1000,
            x86_addrs: (0..n as u32).map(|i| 0x1000 + i).collect(),
            block_starts,
            expectations,
            exit_next: 0x2000,
            orig_uop_count: n,
            uops,
        },
    })
}

/// Re-runs a corpus case through the oracle.
///
/// # Errors
///
/// The check failure, if the case still reproduces (i.e. the guarded bug
/// has regressed).
pub fn replay(case: &CorpusCase) -> Result<(), CheckError> {
    check_frame(&case.frame, &case.passes, &case.entry_seeds).map(|_| ())
}

/// Writes `case` into `dir` (created if missing) as
/// `seed{S}-case{I}.case`, a file [`replay_dir`] replays, and returns its
/// path.
///
/// # Errors
///
/// The directory cannot be created or the file cannot be written.
pub fn save(dir: &Path, case: &CorpusCase) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("seed{}-case{}.case", case.seed, case.case_index));
    std::fs::write(&path, to_text(case)).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Replays every `.case` file in a directory (sorted by file name, so
/// output order is stable). Returns the number of cases replayed.
///
/// A missing directory counts as an empty corpus. Unreadable or
/// unparsable files are reported as errors, not skipped — a corrupt
/// corpus must fail loudly.
///
/// # Errors
///
/// The first file that fails to parse or whose case reproduces a failure.
pub fn replay_dir(dir: &Path) -> Result<u64, (PathBuf, String)> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect(),
        Err(_) => return Ok(0),
    };
    files.sort();
    let mut replayed = 0;
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| (path.clone(), format!("unreadable: {e}")))?;
        let case = from_text(&text).map_err(|e| (path.clone(), e))?;
        replay(&case).map_err(|e| (path.clone(), format!("regressed: {e}")))?;
        replayed += 1;
    }
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::arb_frame;
    use replay_rng::SmallRng;

    #[test]
    fn roundtrips_generated_frames() {
        let mut rng = SmallRng::seed_from_u64(0xC0);
        for i in 0..50u64 {
            let frame = arb_frame(&mut rng);
            let case = CorpusCase {
                note: "synthetic roundtrip case".into(),
                seed: 42,
                case_index: i,
                passes: PassId::ALL.to_vec(),
                entry_seeds: vec![1, 2, 3],
                frame,
            };
            let text = to_text(&case);
            let back = from_text(&text).expect("parses");
            assert_eq!(back.seed, 42);
            assert_eq!(back.passes, case.passes);
            assert_eq!(back.entry_seeds, case.entry_seeds);
            assert_eq!(back.frame.uops, case.frame.uops);
            assert_eq!(back.frame.block_starts, case.frame.block_starts);
            assert_eq!(
                back.frame
                    .expectations
                    .iter()
                    .map(|e| e.uop_index)
                    .collect::<Vec<_>>(),
                case.frame
                    .expectations
                    .iter()
                    .map(|e| e.uop_index)
                    .collect::<Vec<_>>()
            );
            // And the reconstruction is checkable end to end.
            replay(&back).expect("sound pipeline on roundtripped frame");
        }
    }

    #[test]
    fn saved_cases_replay_from_their_directory() {
        let dir = std::env::temp_dir().join(format!("replay-corpus-save-{}", std::process::id()));
        let mut rng = SmallRng::seed_from_u64(0xC1);
        for i in [3u64, 11] {
            let case = CorpusCase {
                note: "saved case".into(),
                seed: 7,
                case_index: i,
                passes: PassId::ALL.to_vec(),
                entry_seeds: vec![1],
                frame: arb_frame(&mut rng),
            };
            let path = save(&dir, &case).expect("saves");
            assert_eq!(path, dir.join(format!("seed7-case{i}.case")));
        }
        assert_eq!(replay_dir(&dir), Ok(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_text("").is_err());
        assert!(from_text("seed 1\npasses NOP\nentries 1\nuop bogus").is_err());
        assert!(from_text("seed 1\npasses WAT\nentries 1\nuop nop").is_err());
        assert!(from_text("garbage line").is_err());
    }
}
