//! Checkpoint/resume for out-of-core protocol runs.
//!
//! After every completed leaf, [`crate::coordinator::ArenaProtocol`] can
//! persist the streaming composition's full pending state — which leaves are
//! done, the live coresets of every tree level, the communication recorded so
//! far, and the fault counters — so a killed run resumes exactly where it
//! stopped and produces the **bit-identical** final answer (pinned by the
//! kill-at-every-node test in `tests/faults.rs`).
//!
//! Format (`RCCKPT01`, all integers little-endian):
//!
//! | field                         | bytes                                  |
//! |-------------------------------|----------------------------------------|
//! | magic `RCCKPT01`              | 8                                      |
//! | problem tag (0 = matching, 1 = vertex cover) | 1                       |
//! | n, k, m, seed, fan_in, fault_seed | 6 × 8                              |
//! | pushed, injected, retried, recovered, ticks | 5 × 8                    |
//! | lost machines                 | 8 (count) + 8 each                     |
//! | per-message words             | 8 (count) + 8 each                     |
//! | per-message bits              | 8 (count) + 8 each                     |
//! | pending levels                | 8 (count), then per level: 8 (count) + items |
//! | CRC-32 of everything above    | 4                                      |
//!
//! Writes are atomic (`<path>.tmp` then rename), so a crash mid-write leaves
//! the previous checkpoint intact. Loads are *lenient by design*: a missing,
//! truncated, checksum-corrupt, or parameter-mismatched file yields `None`
//! and the run simply starts fresh — a bad checkpoint must never be able to
//! wedge a protocol. The runner applies the same rule to a checkpoint that
//! loads but whose frontier its composition plan cannot reach
//! ([`coresets::TreePlan::fits`]).
//!
//! # Save cost
//!
//! A resumable run rewrites the **whole** frontier after every leaf — a full
//! snapshot each time, never a delta — so one run writes the sum of its
//! `k` frontier sizes. On an R-MAT arena of scale 16, edge factor 16
//! (~1.05M edges), `k = 32`, fan-in 2, that is ~5.2 MB of matching
//! checkpoints and ~38.3 MB of vertex-cover checkpoints per uninterrupted
//! run. Each save encodes a borrowed [`CheckpointView`] of the runner's live
//! state (no clone of the frontier, communication or lost-machine list)
//! into one buffer sized up front from [`CheckpointItem::encoded_len`], one
//! 8-byte record per edge, seals it with the slicing-by-8 CRC32 of
//! [`graph::arena_file::crc32`], and writes it with a single call. Over the
//! 32 vertex-cover saves of that run (2-vCPU Xeon VM) the saves take ~85 ms:
//! ~32 ms CRC, ~45 ms file write and rename, the rest encoding.

use crate::comm::CommunicationCost;
use crate::error::ProtocolError;
use crate::faults::FaultReport;
use coresets::vc_coreset::VcCoresetOutput;
use graph::arena_file::crc32;
use graph::{Edge, Graph};

/// File magic of the checkpoint format.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RCCKPT01";

/// Identity of the run a checkpoint belongs to. A checkpoint is only resumed
/// when every field matches — a checkpoint from a different graph, seed,
/// fan-in or fault universe is silently discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointKey {
    /// Problem tag ([`CheckpointItem::PROBLEM`]).
    pub problem: u8,
    /// Vertices of the arena graph.
    pub n: u64,
    /// Machines (arena segments).
    pub k: u64,
    /// Edges of the arena graph.
    pub m: u64,
    /// Protocol seed.
    pub seed: u64,
    /// Composition fan-in.
    pub fan_in: u64,
    /// Fault-universe seed.
    pub fault_seed: u64,
}

/// Snapshot of an in-flight arena run: everything needed to resume the
/// streaming composition after the last fully processed leaf.
#[derive(Debug, Clone)]
pub struct ArenaCheckpoint<T> {
    /// Leaves fully processed (loaded, summarized, pushed, checkpointed).
    pub pushed: usize,
    /// Live (pending) coresets of every composition-tree level.
    pub pending: Vec<Vec<T>>,
    /// Communication recorded for the processed leaves.
    pub communication: CommunicationCost,
    /// Faults injected so far.
    pub injected: u64,
    /// Re-executions performed so far.
    pub retried: u64,
    /// Machines that failed at least once but delivered.
    pub recovered: u64,
    /// Simulated ticks spent so far.
    pub ticks: u64,
    /// Machines permanently lost so far, in index order.
    pub lost_machines: Vec<usize>,
}

impl<T> ArenaCheckpoint<T> {
    /// Borrows this snapshot as the view the encoder reads.
    pub fn view(&self) -> CheckpointView<'_, T> {
        CheckpointView {
            pushed: self.pushed,
            pending: &self.pending,
            communication: &self.communication,
            injected: self.injected,
            retried: self.retried,
            recovered: self.recovered,
            ticks: self.ticks,
            lost_machines: &self.lost_machines,
        }
    }
}

/// Borrowed form of an [`ArenaCheckpoint`]: what [`save_checkpoint_view`]
/// encodes. The resumable runners build one per leaf straight from their
/// live [`coresets::tree::TreeFolder`] frontier, communication and
/// [`FaultReport`], so a save clones none of them.
#[derive(Debug)]
pub struct CheckpointView<'a, T> {
    /// Leaves fully processed.
    pub pushed: usize,
    /// Live (pending) coresets of every composition-tree level.
    pub pending: &'a [Vec<T>],
    /// Communication recorded for the processed leaves.
    pub communication: &'a CommunicationCost,
    /// Faults injected so far.
    pub injected: u64,
    /// Re-executions performed so far.
    pub retried: u64,
    /// Machines that failed at least once but delivered.
    pub recovered: u64,
    /// Simulated ticks spent so far.
    pub ticks: u64,
    /// Machines permanently lost so far, in index order.
    pub lost_machines: &'a [usize],
}

impl<'a, T> CheckpointView<'a, T> {
    /// The resume state of a run that has pushed `pushed` leaves, leaving
    /// `pending` in its folder, with `report`'s fault counters so far.
    pub fn new(
        pushed: usize,
        pending: &'a [Vec<T>],
        communication: &'a CommunicationCost,
        report: &'a FaultReport,
    ) -> Self {
        CheckpointView {
            pushed,
            pending,
            communication,
            injected: report.injected,
            retried: report.retried,
            recovered: report.recovered,
            ticks: report.ticks,
            lost_machines: &report.lost_machines,
        }
    }
}

/// Sequential little-endian reader over a checkpoint body; every take
/// returns `None` past the end, which the loader treats as corruption.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn take_u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn take_u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let chunk: [u8; 8] = self.bytes.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(u64::from_le_bytes(chunk))
    }

    fn take_u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let chunk: [u8; 4] = self.bytes.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(u32::from_le_bytes(chunk))
    }

    /// A length prefix, bounded by the bytes actually remaining so corrupt
    /// counts cannot trigger huge allocations.
    fn take_count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let count = usize::try_from(self.take_u64()?).ok()?;
        let remaining = self.bytes.len() - self.pos;
        if count.checked_mul(min_item_bytes.max(1))? > remaining {
            return None;
        }
        Some(count)
    }

    fn take_u64_vec(&mut self) -> Option<Vec<u64>> {
        let count = self.take_count(8)?;
        (0..count).map(|_| self.take_u64()).collect()
    }

    fn fully_consumed(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64s(out: &mut Vec<u8>, xs: impl ExactSizeIterator<Item = u64>) {
    put_u64(out, xs.len() as u64);
    for x in xs {
        put_u64(out, x);
    }
}

/// Encoded bytes of a graph: `n`, `m`, then one 8-byte record per edge.
fn graph_len(g: &Graph) -> usize {
    16 + 8 * g.m()
}

fn encode_graph(g: &Graph, out: &mut Vec<u8>) {
    put_u64(out, g.n() as u64);
    put_u64(out, g.m() as u64);
    for e in g.edges() {
        // `u` then `v`, each little-endian: the low word of a LE u64.
        out.extend_from_slice(&(u64::from(e.u) | u64::from(e.v) << 32).to_le_bytes());
    }
}

fn decode_graph(r: &mut ByteReader<'_>) -> Option<Graph> {
    let n = usize::try_from(r.take_u64()?).ok()?;
    let m = {
        let m = usize::try_from(r.take_u64()?).ok()?;
        let remaining = r.bytes.len() - r.pos;
        if m.checked_mul(8)? > remaining {
            return None;
        }
        m
    };
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = r.take_u32()?;
        let v = r.take_u32()?;
        if u >= v || v as usize >= n {
            return None;
        }
        edges.push(Edge { u, v });
    }
    // Bounds and canonical order were just validated; edge order must be
    // preserved exactly for bit-identical resumption, so skip the
    // deduplicating constructor.
    Some(Graph::from_edges_unchecked(n, edges))
}

/// A coreset type that can live inside a checkpoint.
pub trait CheckpointItem: Sized {
    /// Problem tag stored in the header (0 = matching, 1 = vertex cover), so
    /// a matching checkpoint can never resume a vertex-cover run.
    const PROBLEM: u8;

    /// Exact number of bytes [`CheckpointItem::encode`] appends, so a save
    /// can size its buffer once.
    fn encoded_len(&self) -> usize;

    /// Appends this item's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one item; `None` marks the checkpoint corrupt.
    fn decode(r: &mut ByteReader<'_>) -> Option<Self>;
}

impl CheckpointItem for Graph {
    const PROBLEM: u8 = 0;

    fn encoded_len(&self) -> usize {
        graph_len(self)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        encode_graph(self, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        decode_graph(r)
    }
}

impl CheckpointItem for VcCoresetOutput {
    const PROBLEM: u8 = 1;

    fn encoded_len(&self) -> usize {
        8 + 4 * self.fixed_vertices.len() + graph_len(&self.residual)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.fixed_vertices.len() as u64);
        for &v in &self.fixed_vertices {
            out.extend_from_slice(&v.to_le_bytes());
        }
        encode_graph(&self.residual, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let count = r.take_count(4)?;
        let fixed_vertices = (0..count)
            .map(|_| r.take_u32())
            .collect::<Option<Vec<_>>>()?;
        let residual = decode_graph(r)?;
        Some(VcCoresetOutput {
            fixed_vertices,
            residual,
        })
    }
}

/// Bytes before the variable-length sections: magic, problem tag, the six
/// key fields and the five counters.
const FIXED_BYTES: usize = 8 + 1 + 6 * 8 + 5 * 8;
/// Bytes of the trailing CRC-32.
const CRC_BYTES: usize = 4;

fn state_len<T: CheckpointItem>(ck: &CheckpointView<'_, T>) -> usize {
    let counted = |len: usize| 8 + 8 * len;
    let levels: usize = ck
        .pending
        .iter()
        .map(|level| 8 + level.iter().map(T::encoded_len).sum::<usize>())
        .sum();
    FIXED_BYTES
        + counted(ck.lost_machines.len())
        + counted(ck.communication.per_machine_words.len())
        + counted(ck.communication.per_machine_bits.len())
        + 8
        + levels
        + CRC_BYTES
}

/// Encodes a checkpoint into one buffer of exactly its final size.
fn encode_state<T: CheckpointItem>(key: &CheckpointKey, ck: &CheckpointView<'_, T>) -> Vec<u8> {
    let len = state_len(ck);
    // The file image itself: the one allocation of a save.
    let mut out = Vec::with_capacity(len); // xtask: allow(hot-path-alloc)
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.push(key.problem);
    for x in [key.n, key.k, key.m, key.seed, key.fan_in, key.fault_seed] {
        put_u64(&mut out, x);
    }
    for x in [
        ck.pushed as u64,
        ck.injected,
        ck.retried,
        ck.recovered,
        ck.ticks,
    ] {
        put_u64(&mut out, x);
    }
    put_u64s(&mut out, ck.lost_machines.iter().map(|&m| m as u64));
    put_u64s(&mut out, ck.communication.per_machine_words.iter().copied());
    put_u64s(&mut out, ck.communication.per_machine_bits.iter().copied());
    put_u64(&mut out, ck.pending.len() as u64);
    for level in ck.pending {
        put_u64(&mut out, level.len() as u64);
        for item in level {
            item.encode(&mut out);
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len(), len, "state_len disagrees with the encoder");
    out
}

fn decode_checkpoint<T: CheckpointItem>(
    key: &CheckpointKey,
    bytes: &[u8],
) -> Option<ArenaCheckpoint<T>> {
    if bytes.len() < CHECKPOINT_MAGIC.len() + 4 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let mut r = ByteReader::new(body);
    let mut magic = [0u8; 8];
    for b in &mut magic {
        *b = r.take_u8()?;
    }
    if magic != CHECKPOINT_MAGIC {
        return None;
    }
    let found = CheckpointKey {
        problem: r.take_u8()?,
        n: r.take_u64()?,
        k: r.take_u64()?,
        m: r.take_u64()?,
        seed: r.take_u64()?,
        fan_in: r.take_u64()?,
        fault_seed: r.take_u64()?,
    };
    if found != *key {
        return None;
    }
    let pushed = usize::try_from(r.take_u64()?).ok()?;
    let injected = r.take_u64()?;
    let retried = r.take_u64()?;
    let recovered = r.take_u64()?;
    let ticks = r.take_u64()?;
    let lost_machines = r
        .take_u64_vec()?
        .into_iter()
        .map(|m| usize::try_from(m).ok())
        .collect::<Option<Vec<_>>>()?;
    let communication = CommunicationCost {
        per_machine_words: r.take_u64_vec()?,
        per_machine_bits: r.take_u64_vec()?,
    };
    let levels = r.take_count(8)?;
    let mut pending = Vec::with_capacity(levels);
    for _ in 0..levels {
        let items = r.take_count(1)?;
        let level = (0..items)
            .map(|_| T::decode(&mut r))
            .collect::<Option<Vec<_>>>()?;
        pending.push(level);
    }
    if !r.fully_consumed() {
        return None;
    }
    Some(ArenaCheckpoint {
        pushed,
        pending,
        communication,
        injected,
        retried,
        recovered,
        ticks,
        lost_machines,
    })
}

/// Atomically persists a checkpoint: the bytes land in `<path>.tmp` first and
/// are renamed over `path`, so a crash mid-write never destroys the previous
/// resume point.
pub fn save_checkpoint<T: CheckpointItem>(
    path: &std::path::Path,
    key: &CheckpointKey,
    ck: &ArenaCheckpoint<T>,
) -> Result<(), ProtocolError> {
    save_checkpoint_view(path, key, &ck.view())
}

/// [`save_checkpoint`] from borrowed state; writes the same bytes.
pub fn save_checkpoint_view<T: CheckpointItem>(
    path: &std::path::Path,
    key: &CheckpointKey,
    ck: &CheckpointView<'_, T>,
) -> Result<(), ProtocolError> {
    let bytes = encode_state(key, ck);
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    std::fs::write(&tmp, &bytes).map_err(|e| ProtocolError::Checkpoint {
        context: format!("write {}: {e}", tmp.display()),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| ProtocolError::Checkpoint {
        context: format!("rename {} over {}: {e}", tmp.display(), path.display()),
    })
}

/// Loads the checkpoint at `path` if it exists, verifies, and belongs to the
/// run identified by `key`. Any defect — missing file, bad magic, failed
/// CRC, truncation, parameter mismatch — yields `None`: the caller starts
/// fresh instead of trusting damaged state.
pub fn load_checkpoint<T: CheckpointItem>(
    path: &std::path::Path,
    key: &CheckpointKey,
) -> Option<ArenaCheckpoint<T>> {
    let bytes = std::fs::read(path).ok()?;
    decode_checkpoint(key, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_key() -> CheckpointKey {
        CheckpointKey {
            problem: Graph::PROBLEM,
            n: 100,
            k: 8,
            m: 407,
            seed: 42,
            fan_in: 2,
            fault_seed: 7,
        }
    }

    fn demo_checkpoint() -> ArenaCheckpoint<Graph> {
        let g1 = Graph::from_pairs(100, vec![(0, 1), (2, 3), (5, 9)]).unwrap();
        let g2 = Graph::from_pairs(100, vec![(10, 20)]).unwrap();
        let mut communication = CommunicationCost::default();
        communication.record_message(&crate::comm::CostModel::for_n(100), 3, 0);
        communication.record_message(&crate::comm::CostModel::for_n(100), 1, 0);
        ArenaCheckpoint {
            pushed: 2,
            pending: vec![vec![g1, g2], vec![], vec![]],
            communication,
            injected: 3,
            retried: 2,
            recovered: 1,
            ticks: 12,
            lost_machines: vec![4],
        }
    }

    /// `demo_checkpoint` with vertex-cover items over the same residuals.
    fn demo_vc_checkpoint() -> ArenaCheckpoint<VcCoresetOutput> {
        let demo = demo_checkpoint();
        let items = demo.pending[0]
            .iter()
            .zip([vec![7, 3, 99], vec![]])
            .map(|(g, fixed_vertices)| VcCoresetOutput {
                fixed_vertices,
                residual: g.clone(),
            })
            .collect();
        ArenaCheckpoint {
            pushed: demo.pushed,
            pending: vec![items, vec![], vec![]],
            communication: demo.communication,
            injected: demo.injected,
            retried: demo.retried,
            recovered: demo.recovered,
            ticks: demo.ticks,
            lost_machines: demo.lost_machines,
        }
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rc_ckpt_{}_{tag}.bin", std::process::id()))
    }

    #[test]
    fn round_trips_exactly() {
        let path = tmp_path("round_trip");
        let key = demo_key();
        let ck = demo_checkpoint();
        save_checkpoint(&path, &key, &ck).unwrap();
        let back: ArenaCheckpoint<Graph> = load_checkpoint(&path, &key).expect("loads");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.pushed, ck.pushed);
        assert_eq!(back.pending.len(), ck.pending.len());
        for (a, b) in back.pending.iter().zip(&ck.pending) {
            assert_eq!(a.len(), b.len());
            for (ga, gb) in a.iter().zip(b) {
                assert_eq!(ga.n(), gb.n());
                assert_eq!(ga.edges(), gb.edges(), "edge order must survive");
            }
        }
        assert_eq!(back.communication, ck.communication);
        assert_eq!(
            (back.injected, back.retried, back.recovered, back.ticks),
            (3, 2, 1, 12)
        );
        assert_eq!(back.lost_machines, vec![4]);
    }

    #[test]
    fn vc_items_round_trip() {
        let path = tmp_path("vc_round_trip");
        let key = CheckpointKey {
            problem: VcCoresetOutput::PROBLEM,
            ..demo_key()
        };
        let ck = ArenaCheckpoint {
            pushed: 1,
            pending: vec![vec![VcCoresetOutput {
                fixed_vertices: vec![7, 3, 99],
                residual: Graph::from_pairs(100, vec![(1, 2)]).unwrap(),
            }]],
            communication: CommunicationCost::default(),
            injected: 0,
            retried: 0,
            recovered: 0,
            ticks: 0,
            lost_machines: vec![],
        };
        save_checkpoint(&path, &key, &ck).unwrap();
        let back: ArenaCheckpoint<VcCoresetOutput> = load_checkpoint(&path, &key).expect("loads");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.pending[0][0].fixed_vertices, vec![7, 3, 99]);
        assert_eq!(back.pending[0][0].residual.m(), 1);
    }

    /// Length and stored CRC of the demo checkpoints, recorded from the
    /// original push-as-you-go encoder: the presized encoder and the
    /// slicing CRC kernel must not move a byte.
    #[test]
    fn encoded_bytes_are_pinned() {
        let graph = encode_state(&demo_key(), &demo_checkpoint().view());
        let vc_key = CheckpointKey {
            problem: VcCoresetOutput::PROBLEM,
            ..demo_key()
        };
        let vc = encode_state(&vc_key, &demo_vc_checkpoint().view());
        for (bytes, len, crc) in [(&graph, 261, 0x738C_002E), (&vc, 289, 0x6EDC_0156)] {
            let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
            assert_eq!((bytes.len(), stored), (len, crc));
            assert_eq!(crc32(&bytes[..bytes.len() - 4]), crc);
        }
    }

    #[test]
    fn borrowed_view_save_writes_the_same_file() {
        let key = demo_key();
        let ck = demo_checkpoint();
        let (owned, borrowed) = (tmp_path("owned_save"), tmp_path("view_save"));
        save_checkpoint(&owned, &key, &ck).unwrap();
        let report = FaultReport {
            injected: ck.injected,
            retried: ck.retried,
            recovered: ck.recovered,
            ticks: ck.ticks,
            lost_machines: ck.lost_machines.clone(),
            ..FaultReport::new(key.fault_seed)
        };
        let view = CheckpointView::new(ck.pushed, &ck.pending, &ck.communication, &report);
        save_checkpoint_view(&borrowed, &key, &view).unwrap();
        let (a, b) = (
            std::fs::read(&owned).unwrap(),
            std::fs::read(&borrowed).unwrap(),
        );
        std::fs::remove_file(&owned).unwrap();
        std::fs::remove_file(&borrowed).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = tmp_path("missing_never_created");
        assert!(load_checkpoint::<Graph>(&path, &demo_key()).is_none());
    }

    #[test]
    fn every_single_byte_corruption_is_rejected_or_equal() {
        let path = tmp_path("bitflip");
        let key = demo_key();
        save_checkpoint(&path, &key, &demo_checkpoint()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_checkpoint::<Graph>(&key, &bad).is_none(),
                "flip at byte {i} must be caught by the CRC"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let key = demo_key();
        let full = encode_state(&key, &demo_checkpoint().view());
        for cut in 0..full.len() {
            assert!(
                decode_checkpoint::<Graph>(&key, &full[..cut]).is_none(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn mismatched_run_parameters_are_discarded() {
        let path = tmp_path("mismatch");
        let key = demo_key();
        save_checkpoint(&path, &key, &demo_checkpoint()).unwrap();
        for bad in [
            CheckpointKey { seed: 43, ..key },
            CheckpointKey { k: 9, ..key },
            CheckpointKey { fan_in: 3, ..key },
            CheckpointKey {
                fault_seed: 8,
                ..key
            },
            CheckpointKey {
                problem: VcCoresetOutput::PROBLEM,
                ..key
            },
        ] {
            assert!(
                load_checkpoint::<Graph>(&path, &bad).is_none(),
                "{bad:?} must not resume {key:?}"
            );
        }
        assert!(load_checkpoint::<Graph>(&path, &key).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_is_atomic_over_an_existing_checkpoint() {
        let path = tmp_path("atomic");
        let key = demo_key();
        save_checkpoint(&path, &key, &demo_checkpoint()).unwrap();
        let mut later = demo_checkpoint();
        later.pushed = 5;
        save_checkpoint(&path, &key, &later).unwrap();
        let back: ArenaCheckpoint<Graph> = load_checkpoint(&path, &key).expect("loads");
        assert_eq!(back.pushed, 5);
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(
            !std::path::PathBuf::from(tmp_name).exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
