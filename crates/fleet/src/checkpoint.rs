//! The append-only `fleet.ckpt` resume journal.
//!
//! Format: JSON lines. The first line is a header binding the journal to a
//! spec fingerprint; every subsequent line is a full snapshot of the sweep
//! state — the completed-index [`RangeSet`] plus every cell's
//! [`MergeSummary`] in compact (sparse-recorder, fixed-point-parts) form.
//! Snapshots are cumulative, so loading needs only the **last valid line**:
//! a write torn by a kill leaves a truncated tail that the loader skips,
//! falling back to the previous snapshot. Appending never rewrites history,
//! so a crash can lose at most the jobs since the last snapshot — which
//! resume simply re-runs (bit-identically, since jobs are pure functions of
//! `(spec, index)`).
//!
//! Resume costs one snapshot in time and memory, however long the journal
//! has grown. [`Journal::open`] reads the header line, then reads the file
//! backwards from the end in fixed 64 KiB blocks and tries complete lines
//! last-first, stopping at the first that parses as a snapshot of this spec
//! — the line a forward scan would end on. Blank lines, a torn tail, CRLF
//! endings and non-UTF-8 lines are skipped on the way.
//!
//! Appends cost the cells that changed, not the whole grid. The journal
//! keeps each cell's compact JSON from its previous append and
//! [`Journal::append_cells`] re-serializes only the cells its caller lists
//! as folded since then; the line is assembled from those fragments and is
//! byte for byte the full serialization (a `debug_assert` checks every
//! line in debug builds), so the format does not change. A journal's first
//! append, and every [`Journal::append`], serializes every cell.
//!
//! I/O-error contract: only a missing file, or an empty or whitespace-only
//! one, starts a fresh journal (the header is appended). A header that
//! cannot be read or parsed, and any read error, is an `Err`. A file with
//! content is never truncated; when it does not end in a newline (a torn
//! tail), the next append first terminates that line.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pnoc_sim::rng::splitmix64;
use pnoc_sim::RangeSet;
use serde::{Deserialize, Serialize};

use crate::agg::MergeSummary;
use crate::spec::SweepSpec;

/// Journal format version.
const FORMAT: u64 = 1;

/// The resumable state of a sweep: which jobs completed, and the streaming
/// aggregate of each cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepState {
    /// Completed job indices.
    pub completed: RangeSet,
    /// Per-cell aggregates, indexed by canonical cell order.
    pub cells: Vec<MergeSummary>,
    /// Snapshot sequence number (monotonic per journal).
    pub seq: u64,
}

impl SweepState {
    /// Fresh state for `spec`: nothing completed, empty aggregates.
    pub fn new(spec: &SweepSpec) -> Self {
        Self {
            completed: RangeSet::new(),
            cells: vec![MergeSummary::default(); spec.cells()],
            seq: 0,
        }
    }
}

/// Header line binding a journal to its spec.
#[derive(Debug, Serialize, Deserialize)]
struct Header {
    /// Journal format version.
    fleet_ckpt: u64,
    /// Fingerprint of the serialized spec.
    fingerprint: u64,
    /// Total jobs of the sweep (redundant sanity check).
    total_jobs: u64,
}

/// One snapshot line, as read back.
#[derive(Debug, Serialize, Deserialize)]
struct Snapshot {
    seq: u64,
    completed: RangeSet,
    cells: Vec<MergeSummary>,
}

/// One snapshot line, as written: [`Snapshot`] borrowed from the live state,
/// field for field (same order, same bytes). [`Journal::append_cells`]
/// assembles these bytes from cached cell fragments and checks them against
/// this serialization in debug builds.
#[derive(Serialize)]
struct SnapshotRef<'a> {
    seq: u64,
    completed: &'a RangeSet,
    cells: &'a [MergeSummary],
}

/// Block size of the backward scan in [`Journal::open`].
const BLOCK: usize = 64 * 1024;

/// Longest header line read; a real header is under 100 bytes.
const MAX_HEADER: u64 = 4096;

/// Deterministic fingerprint of a spec: SplitMix64 folded over the bytes of
/// its canonical JSON form. Not cryptographic — it exists to catch "resumed
/// with a different spec" mistakes, not adversaries.
pub fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    let json = serde_json::to_string(spec).expect("spec serializes");
    let mut h: u64 = 0x5EED_F1EE_7000_0001;
    for chunk in json.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h ^= u64::from_le_bytes(word);
        h = splitmix64(&mut h);
    }
    h
}

/// An open, appendable checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// The file does not end in a newline (a torn tail), so the next append
    /// starts with one.
    unterminated: bool,
    /// Compact JSON of each cell as of the previous append, in cell order;
    /// empty (cold) until the first.
    fragments: Vec<String>,
}

impl Journal {
    /// Open (or create) the journal at `path` for `spec`, returning the
    /// journal plus the recovered state.
    ///
    /// * Missing, empty or whitespace-only file → fresh journal: appends the
    ///   header, returns [`SweepState::new`].
    /// * Existing file → verifies the header fingerprint against `spec`
    ///   (mismatch is an error: resuming under a different spec would merge
    ///   incompatible aggregates), then recovers the last valid snapshot,
    ///   reading backwards from the end of the file (see the module docs).
    /// * An unreadable or unparsable header, or any read error, is an error;
    ///   the file is left as it was.
    pub fn open(path: &Path, spec: &SweepSpec) -> Result<(Self, SweepState), String> {
        Self::open_with_block(path, spec, BLOCK)
    }

    fn open_with_block(
        path: &Path,
        spec: &SweepSpec,
        block: usize,
    ) -> Result<(Self, SweepState), String> {
        let io_err =
            |what: &str, e: io::Error| format!("{what} checkpoint {}: {e}", path.display());
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        let mut journal = Self {
            unterminated: !ends_with_newline(&file, len).map_err(|e| io_err("read", e))?,
            file,
            path: path.to_path_buf(),
            fragments: Vec::new(),
        };
        let fingerprint = spec_fingerprint(spec);

        let Some((header_line, body)) =
            read_header(&journal.file).map_err(|e| io_err("read", e))?
        else {
            journal.write_line(to_json(&Header {
                fleet_ckpt: FORMAT,
                fingerprint,
                total_jobs: spec.total_jobs(),
            }))?;
            return Ok((journal, SweepState::new(spec)));
        };
        let header_line = std::str::from_utf8(&header_line)
            .map_err(|_| "bad checkpoint header: not UTF-8".to_string())?;
        let header: Header =
            serde_json::from_str(header_line).map_err(|e| format!("bad checkpoint header: {e}"))?;
        if header.fleet_ckpt != FORMAT {
            return Err(format!(
                "checkpoint format {} unsupported (expected {FORMAT})",
                header.fleet_ckpt
            ));
        }
        if header.fingerprint != fingerprint {
            return Err(format!(
                "checkpoint {} belongs to a different sweep spec \
                 (fingerprint {:#x}, expected {:#x})",
                path.display(),
                header.fingerprint,
                fingerprint
            ));
        }

        let mut lines = LinesBackward::new(&journal.file, body, len, block);
        while let Some(line) = lines.next_line().map_err(|e| io_err("read", e))? {
            if let Some(state) = parse_snapshot(&line, spec) {
                return Ok((journal, state));
            }
        }
        Ok((journal, SweepState::new(spec)))
    }

    /// Append one snapshot line of `state`, serializing every cell. The
    /// caller bumps `state.seq` first.
    pub fn append(&mut self, state: &SweepState) -> Result<(), String> {
        self.fragments.clear();
        self.append_cells(state, &[])
    }

    /// Append one snapshot line of `state`, re-serializing only the cells
    /// listed in `dirty` (duplicates allowed): every other cell must be
    /// unchanged since this journal's previous append. A journal's first
    /// append serializes every cell. The caller bumps `state.seq` first.
    pub fn append_cells(&mut self, state: &SweepState, dirty: &[usize]) -> Result<(), String> {
        if self.fragments.len() == state.cells.len() {
            for &cell in dirty {
                self.fragments[cell] = to_json(&state.cells[cell]);
            }
        } else {
            self.fragments = state.cells.iter().map(to_json).collect();
        }
        // `SnapshotRef`'s serialization, assembled from the fragments.
        let completed = to_json(&state.completed);
        let cells_len: usize = self.fragments.iter().map(|f| f.len() + 1).sum();
        let mut line = String::with_capacity(64 + completed.len() + cells_len);
        line.push_str("{\"seq\":");
        line.push_str(&state.seq.to_string());
        line.push_str(",\"completed\":");
        line.push_str(&completed);
        line.push_str(",\"cells\":[");
        for (i, fragment) in self.fragments.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(fragment);
        }
        line.push_str("]}");
        debug_assert_eq!(
            line,
            to_json(&SnapshotRef {
                seq: state.seq,
                completed: &state.completed,
                cells: &state.cells,
            }),
            "cached snapshot line differs from the full serialization"
        );
        self.write_line(line)
    }

    /// Append `json` as one line, terminating a torn tail first.
    fn write_line(&mut self, mut json: String) -> Result<(), String> {
        json.push('\n');
        let prefix: &[u8] = if self.unterminated { b"\n" } else { b"" };
        [prefix, json.as_bytes()]
            .iter()
            .try_for_each(|bytes| self.file.write_all(bytes))
            .map_err(|e| format!("append checkpoint {}: {e}", self.path.display()))?;
        self.unterminated = false;
        self.file
            .flush()
            .map_err(|e| format!("flush checkpoint: {e}"))
    }
}

/// `value` as compact JSON.
fn to_json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("journal line serializes")
}

/// A journal line as the state it snapshots, if it is a snapshot of `spec`:
/// UTF-8, valid JSON, and the right shape.
fn parse_snapshot(line: &[u8], spec: &SweepSpec) -> Option<SweepState> {
    let snap: Snapshot = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()?;
    let fits = snap.cells.len() == spec.cells() && snap.completed.len() <= spec.total_jobs();
    fits.then_some(SweepState {
        completed: snap.completed,
        cells: snap.cells,
        seq: snap.seq,
    })
}

/// Fill `buf` from `file` at offset `at`.
fn read_at(mut file: &File, at: u64, buf: &mut [u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(at))?;
    file.read_exact(buf)
}

/// Whether the `len`-byte `file` is empty or ends in `\n`.
fn ends_with_newline(file: &File, len: u64) -> io::Result<bool> {
    if len == 0 {
        return Ok(true);
    }
    let mut last = [0u8];
    read_at(file, len - 1, &mut last)?;
    Ok(last[0] == b'\n')
}

/// The header line (the first line after any leading whitespace, at most
/// [`MAX_HEADER`] bytes) and the offset just past it, or `None` if the file
/// holds only whitespace.
fn read_header(mut file: &File) -> io::Result<Option<(Vec<u8>, u64)>> {
    file.seek(SeekFrom::Start(0))?;
    let mut reader = BufReader::new(file);
    let mut start = 0u64;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(None);
        }
        let blank = buf.iter().take_while(|b| b.is_ascii_whitespace()).count();
        let found = blank < buf.len();
        reader.consume(blank);
        start += blank as u64;
        if found {
            break;
        }
    }
    let mut line = Vec::new();
    reader.take(MAX_HEADER).read_until(b'\n', &mut line)?;
    let end = start + line.len() as u64;
    Ok(Some((line, end)))
}

/// The lines of `file[lo..end)`, last first. Line starts are found by
/// reading fixed-size blocks backwards from the end, and each line is then
/// read whole, so memory is one block plus the line being returned.
struct LinesBackward<'f> {
    file: &'f File,
    lo: u64,
    /// End (exclusive) of the next line to return; `None` once `lo` is
    /// reached.
    end: Option<u64>,
    /// The last block read: `file[block_at..block_at + block.len())`.
    block: Vec<u8>,
    block_at: u64,
    block_size: u64,
}

impl<'f> LinesBackward<'f> {
    fn new(file: &'f File, lo: u64, end: u64, block_size: usize) -> Self {
        Self {
            file,
            lo,
            end: Some(end),
            block: Vec::new(),
            block_at: end,
            block_size: block_size as u64,
        }
    }

    /// The next line (without its `\n`), moving towards the start.
    fn next_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some(end) = self.end else {
            return Ok(None);
        };
        let start = self.line_start(end)?;
        self.end = (start > self.lo).then(|| start - 1);
        let mut line = vec![0; usize::try_from(end - start).expect("line fits in memory")];
        read_at(self.file, start, &mut line)?;
        Ok(Some(line))
    }

    /// The offset just past the last `\n` in `file[lo..end)`, or `lo`.
    fn line_start(&mut self, end: u64) -> io::Result<u64> {
        let mut hi = end;
        loop {
            let block_end = self.block_at + self.block.len() as u64;
            if self.block_at < hi && hi <= block_end {
                let below = &self.block[..usize::try_from(hi - self.block_at).expect("in block")];
                if let Some(i) = below.iter().rposition(|&b| b == b'\n') {
                    return Ok(self.block_at + i as u64 + 1);
                }
                hi = self.block_at;
            }
            if hi <= self.lo {
                return Ok(self.lo);
            }
            let from = hi.saturating_sub(self.block_size).max(self.lo);
            self.block
                .resize(usize::try_from(hi - from).expect("block fits"), 0);
            read_at(self.file, from, &mut self.block)?;
            self.block_at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use pnoc_noc::PointDetail;
    use pnoc_sim::SimRng;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pnoc-fleet-tests");
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        dir.join(name)
    }

    #[test]
    fn fresh_journal_round_trips_state() {
        let spec = SweepSpec::demo();
        let path = tmp("fresh.ckpt");
        let _ = std::fs::remove_file(&path);
        let (mut journal, mut state) = Journal::open(&path, &spec).expect("open");
        assert!(state.completed.is_empty());

        // Fold a few synthetic jobs and snapshot.
        fold_jobs(&spec, &mut state, 0, 5);
        state.seq = 1;
        journal.append(&state).expect("append");
        drop(journal);

        let (_, recovered) = Journal::open(&path, &spec).expect("reopen");
        assert_eq!(recovered, state);
    }

    #[test]
    fn torn_tail_falls_back_to_previous_snapshot() {
        let spec = SweepSpec::demo();
        let path = tmp("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let (mut journal, mut state) = Journal::open(&path, &spec).expect("open");
        state.completed.insert_range(0, 3);
        state.seq = 1;
        journal.append(&state).expect("append");
        drop(journal);

        // Simulate a kill mid-write: append half a JSON line.
        let mut f = OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open raw");
        write!(f, "{{\"seq\":2,\"completed\":{{\"ranges\":[{{\"lo\":0,").expect("tear");
        drop(f);

        let (_, recovered) = Journal::open(&path, &spec).expect("reopen");
        assert_eq!(recovered.seq, 1);
        assert_eq!(recovered.completed.len(), 3);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let spec = SweepSpec::demo();
        let path = tmp("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path, &spec).expect("open");
        drop(journal);

        let mut other = spec.clone();
        other.master_seed ^= 1;
        let err = Journal::open(&path, &other).expect_err("must reject");
        assert!(err.contains("different sweep spec"), "got: {err}");
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&other));
    }

    /// Fold demo jobs `from..to` into `state`.
    fn fold_jobs(spec: &SweepSpec, state: &mut SweepState, from: u64, to: u64) {
        for i in from..to {
            let detail = spec.run_job(i);
            state.cells[spec.cell_of(i)].fold(&detail.summary, &detail.latency);
            state.completed.insert(i);
        }
    }

    /// The bytes of a demo-spec journal holding snapshots seq 1, 2, 3 (three
    /// more jobs each), and those three states.
    fn demo_journal() -> &'static (Vec<u8>, Vec<SweepState>) {
        static JOURNAL: std::sync::OnceLock<(Vec<u8>, Vec<SweepState>)> =
            std::sync::OnceLock::new();
        JOURNAL.get_or_init(|| {
            let spec = SweepSpec::demo();
            let path = tmp("demo-source.ckpt");
            let _ = std::fs::remove_file(&path);
            let (mut journal, mut state) = Journal::open(&path, &spec).expect("open");
            let mut states = Vec::new();
            for seq in 1..=3 {
                fold_jobs(&spec, &mut state, (seq - 1) * 3, seq * 3);
                state.seq = seq;
                journal.append(&state).expect("append");
                states.push(state.clone());
            }
            (std::fs::read(&path).expect("read journal"), states)
        })
    }

    /// The snapshot line of `state`, newline included.
    fn snapshot_line(state: &SweepState) -> Vec<u8> {
        let snap = SnapshotRef {
            seq: state.seq,
            completed: &state.completed,
            cells: &state.cells,
        };
        let mut line = serde_json::to_string(&snap)
            .expect("serializes")
            .into_bytes();
        line.push(b'\n');
        line
    }

    /// The reader the tail-first scan replaces: parse every line after the
    /// header, keep the last one that is a snapshot of `spec`.
    fn forward_reference(bytes: &[u8], spec: &SweepSpec) -> SweepState {
        let mut state = SweepState::new(spec);
        for line in bytes.split(|&b| b == b'\n').skip(1) {
            let Ok(text) = std::str::from_utf8(line) else {
                continue;
            };
            if let Ok(snap) = serde_json::from_str::<Snapshot>(text) {
                if snap.cells.len() == spec.cells() && snap.completed.len() <= spec.total_jobs() {
                    state = SweepState {
                        completed: snap.completed,
                        cells: snap.cells,
                        seq: snap.seq,
                    };
                }
            }
        }
        state
    }

    /// Open `bytes` as a journal at several block sizes; each must recover
    /// what the forward scan does and leave the file untouched.
    fn assert_matches_forward_scan(name: &str, spec: &SweepSpec, bytes: &[u8], blocks: &[usize]) {
        let expect = forward_reference(bytes, spec);
        let path = tmp(&format!("{name}.ckpt"));
        for &block in blocks {
            std::fs::write(&path, bytes).expect("write journal");
            let (_, got) = Journal::open_with_block(&path, spec, block).expect(name);
            assert_eq!(got, expect, "{name}, block {block}");
            assert_eq!(
                std::fs::read(&path).expect("read"),
                bytes,
                "{name}: open wrote"
            );
        }
    }

    const BLOCKS: [usize; 5] = [1, 7, 64, 4096, BLOCK];

    #[test]
    fn tail_first_recovery_matches_forward_scan() {
        let spec = SweepSpec::demo();
        let (bytes, states) = demo_journal();
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
        let cat = |parts: &[&[u8]]| parts.concat();

        let mut other = SweepSpec::demo();
        other.rates.push(0.25);
        let mut wrong_cells = SweepState::new(&other);
        wrong_cells.seq = 99;
        let mut too_many = states[0].clone();
        too_many.completed.insert_range(0, spec.total_jobs() + 1);
        too_many.seq = 98;
        let torn = b"{\"seq\":4,\"completed\":{\"ranges\":[{\"lo\":0,";
        let mut corrupt_last = snapshot_line(&states[2]);
        corrupt_last[10] = 0xFF;

        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("plain", bytes.clone()),
            ("torn-tail", cat(&[bytes, torn])),
            (
                "wrong-cell-count",
                cat(&[bytes, &snapshot_line(&wrong_cells)]),
            ),
            (
                "too-many-completed",
                cat(&[bytes, &snapshot_line(&too_many)]),
            ),
            ("non-utf8-last", cat(&[bytes, b"\xff\xfe\n"])),
            ("corrupt-last", cat(&[bytes, &corrupt_last])),
            (
                "blank-lines",
                String::from_utf8(bytes.clone())
                    .expect("utf8")
                    .replace('\n', "\n\n  \t\n")
                    .into_bytes(),
            ),
            (
                "crlf",
                String::from_utf8(bytes.clone())
                    .expect("utf8")
                    .replace('\n', "\r\n")
                    .into_bytes(),
            ),
            ("no-trailing-newline", bytes[..bytes.len() - 1].to_vec()),
            ("header-only", bytes[..header_end].to_vec()),
            ("header-only-unterminated", bytes[..header_end - 1].to_vec()),
        ];
        for (name, journal) in &cases {
            assert_matches_forward_scan(name, &spec, journal, &BLOCKS);
        }
        // The cases above really recover different snapshots.
        assert_eq!(forward_reference(&cases[1].1, &spec), states[2]);
        assert_eq!(
            forward_reference(&cases[9].1, &spec),
            SweepState::new(&spec)
        );
    }

    #[test]
    fn snapshot_larger_than_a_block_spans_blocks() {
        // Many cells, each holding one job's recorder: one line > BLOCK.
        let mut spec = SweepSpec::demo();
        spec.rates = (1..=40).map(|r| f64::from(r) * 0.005).collect();
        let detail = spec.run_job(0);
        let mut state = SweepState::new(&spec);
        for cell in &mut state.cells {
            cell.fold(&detail.summary, &detail.latency);
        }
        state.completed.insert(0);
        let path = tmp("big-source.ckpt");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path, &spec).expect("open");
        for seq in 1..=2 {
            state.seq = seq;
            journal.append(&state).expect("append");
        }
        drop(journal);
        let bytes = std::fs::read(&path).expect("read");
        assert!(
            snapshot_line(&state).len() > BLOCK,
            "snapshot fits one block"
        );
        let torn = &bytes[..bytes.len() - BLOCK / 2];
        assert_matches_forward_scan("big", &spec, &bytes, &[4096, BLOCK]);
        assert_matches_forward_scan("big-torn", &spec, torn, &[4096, BLOCK]);
        assert_eq!(forward_reference(&bytes, &spec), state);
        assert_eq!(forward_reference(torn, &spec).seq, 1);
    }

    #[test]
    fn truncation_sweep_recovers_last_complete_snapshot() {
        let spec = SweepSpec::demo();
        let (bytes, states) = demo_journal();
        let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        let (header_end, snapshot_ends) = (newlines[0], &newlines[1..]);
        let mut cuts: Vec<usize> = (1..=bytes.len()).step_by(37).collect();
        for &end in &newlines {
            cuts.extend([end - 1, end, end + 1]);
        }
        let path = tmp("cut.ckpt");
        for cut in cuts.into_iter().filter(|&c| c <= bytes.len()) {
            std::fs::write(&path, &bytes[..cut]).expect("write cut");
            let opened = Journal::open(&path, &spec);
            let len = std::fs::metadata(&path).expect("stat").len();
            assert_eq!(len, cut as u64, "open changed the length at cut {cut}");
            if cut < header_end {
                assert!(opened.is_err(), "torn header accepted at cut {cut}");
                continue;
            }
            let (_, got) = opened.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let complete = snapshot_ends.iter().filter(|&&end| end <= cut).count();
            let expect = match complete {
                0 => SweepState::new(&spec),
                n => states[n - 1].clone(),
            };
            assert_eq!(got, expect, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_older_snapshot_is_skipped_and_file_kept() {
        let spec = SweepSpec::demo();
        let (bytes, states) = demo_journal();
        // The first two snapshots, with a non-UTF-8 byte inside seq 1.
        let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        let mut journal = bytes[..=newlines[2]].to_vec();
        journal[newlines[0] + 20] = 0xFF;
        let path = tmp("corrupt-older.ckpt");
        std::fs::write(&path, &journal).expect("write");
        let (_, recovered) = Journal::open(&path, &spec).expect("open");
        assert_eq!(recovered.seq, 2);
        assert_eq!(recovered, states[1]);
        assert_eq!(std::fs::read(&path).expect("read"), journal);
    }

    #[test]
    fn unreadable_header_is_an_error_and_keeps_the_file() {
        let spec = SweepSpec::demo();
        let (bytes, _) = demo_journal();
        let mut bad_utf8 = bytes.clone();
        bad_utf8[3] = 0xFF;
        for (name, contents) in [
            ("garbage-header", b"not a journal\n".to_vec()),
            ("non-utf8-header", bad_utf8),
            ("torn-header", bytes[..10].to_vec()),
        ] {
            let path = tmp(&format!("{name}.ckpt"));
            std::fs::write(&path, &contents).expect("write");
            let err = Journal::open(&path, &spec).expect_err(name);
            assert!(err.contains("bad checkpoint header"), "{name}: {err}");
            assert_eq!(std::fs::read(&path).expect("read"), contents, "{name}");
        }
    }

    #[test]
    fn whitespace_only_file_starts_fresh_without_truncation() {
        let spec = SweepSpec::demo();
        let path = tmp("whitespace.ckpt");
        std::fs::write(&path, " \n\t ").expect("write");
        let (mut journal, mut state) = Journal::open(&path, &spec).expect("open");
        assert_eq!(state, SweepState::new(&spec));
        fold_jobs(&spec, &mut state, 0, 2);
        state.seq = 1;
        journal.append(&state).expect("append");
        drop(journal);
        assert!(std::fs::read(&path)
            .expect("read")
            .starts_with(b" \n\t \n{"));
        let (_, recovered) = Journal::open(&path, &spec).expect("reopen");
        assert_eq!(recovered, state);
    }

    #[test]
    fn append_after_torn_tail_starts_a_new_line() {
        let spec = SweepSpec::demo();
        let (bytes, states) = demo_journal();
        let torn = [bytes.as_slice(), b"{\"seq\":4,\"compl"].concat();
        let path = tmp("torn-append.ckpt");
        std::fs::write(&path, &torn).expect("write");
        let (mut journal, mut state) = Journal::open(&path, &spec).expect("open");
        assert_eq!(state, states[2]);
        fold_jobs(&spec, &mut state, 9, 10);
        state.seq = 4;
        journal.append(&state).expect("append");
        drop(journal);
        let written = std::fs::read(&path).expect("read");
        assert!(written.starts_with(&torn), "history rewritten");
        let (_, recovered) = Journal::open(&path, &spec).expect("reopen");
        assert_eq!(recovered, state);
    }

    #[test]
    fn snapshot_ref_writes_the_owned_snapshot_bytes() {
        let (_, states) = demo_journal();
        for state in states {
            let owned = Snapshot {
                seq: state.seq,
                completed: state.completed.clone(),
                cells: state.cells.clone(),
            };
            let mut line = serde_json::to_string(&owned)
                .expect("serializes")
                .into_bytes();
            line.push(b'\n');
            assert_eq!(snapshot_line(state), line);
        }
    }

    /// Every demo job's result, run once.
    fn demo_details() -> &'static [PointDetail] {
        static DETAILS: std::sync::OnceLock<Vec<PointDetail>> = std::sync::OnceLock::new();
        DETAILS.get_or_init(|| {
            let spec = SweepSpec::demo();
            (0..spec.total_jobs()).map(|i| spec.run_job(i)).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Demo jobs folded in a random order, with snapshots appended at
        /// random points through the cached path: every line written is the
        /// full serialization of the state. The dirty lists hold the cells
        /// folded since the previous append (a cell folded twice is listed
        /// twice) plus random extra cells; a second append in a row lists
        /// nothing. Now and then the journal is dropped, sometimes with a
        /// torn tail, and reopened on the recovered state.
        #[test]
        fn cached_lines_equal_full_serialization(seed in any::<u64>()) {
            let spec = SweepSpec::demo();
            let details = demo_details();
            let mut rng = SimRng::seed_from(seed);
            let path = tmp("cached-lines.ckpt");
            let _ = std::fs::remove_file(&path);
            let (mut journal, mut state) = Journal::open(&path, &spec).expect("open");
            let mut expect = std::fs::read(&path).expect("read");
            let mut appended = state.clone();
            let mut folded = Vec::new();
            let mut order: Vec<u64> = (0..spec.total_jobs()).collect();
            rng.shuffle(&mut order);
            for index in order {
                let cell = spec.cell_of(index);
                let detail = &details[usize::try_from(index).expect("index")];
                state.cells[cell].fold(&detail.summary, &detail.latency);
                state.completed.insert(index);
                folded.push(cell);
                if rng.chance(0.25) {
                    // A crash: the folds since the last append are lost.
                    drop(journal);
                    if rng.chance(0.5) {
                        let torn = b"{\"seq\":99,\"completed\":{\"ran";
                        let mut f = OpenOptions::new().append(true).open(&path).expect("open raw");
                        f.write_all(torn).expect("tear");
                        expect.extend_from_slice(torn);
                    }
                    let (reopened, recovered) = Journal::open(&path, &spec).expect("reopen");
                    prop_assert_eq!(&recovered, &appended);
                    journal = reopened;
                    state = recovered;
                    folded.clear();
                    continue;
                }
                while rng.chance(0.4) {
                    let mut dirty = std::mem::take(&mut folded);
                    dirty.extend((0..rng.index(3)).map(|_| rng.index(spec.cells())));
                    rng.shuffle(&mut dirty);
                    state.seq += 1;
                    journal.append_cells(&state, &dirty).expect("append");
                    if expect.last() != Some(&b'\n') {
                        expect.push(b'\n');
                    }
                    expect.extend(snapshot_line(&state));
                    prop_assert!(
                        std::fs::read(&path).expect("read") == expect,
                        "seed {seed:#x}: snapshot seq {} differs from the full serialization",
                        state.seq
                    );
                    appended = state.clone();
                }
            }
        }
    }
}
