//! Set-up: everything an audit needs, built from the seed. The product
//! receives only what is generated here.

use crate::workload::{Workload, C};
use bytes::Bytes;
use geoproof::core::auditor::Auditor;
use geoproof::core::policy::TimingPolicy;
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::schnorr::SigningKey;
use geoproof::geo::coords::places::BRISBANE;
use geoproof::geo::gps::GpsReceiver;
use geoproof::ledger::LedgerWriter;
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::por::stream::TaggedArena;
use geoproof::sim::time::Km;
use geoproof::tcp_audit::WallClockVerifier;
use geoproof::wire::tcp::SegmentStore;
use geoproof::wire::MuxProverServer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where runs leave their files (ledgers, traces, result sets). Inside
/// the benchmark's own directory, ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// The file to be stored: `mib` MiB of seeded bytes.
pub fn input_bytes(seed: u64, mib: usize) -> Vec<u8> {
    let mut data = vec![0u8; mib << 20];
    ChaChaRng::from_u64_seed(seed ^ 0x66_69_6c_65).fill_bytes(&mut data);
    data
}

/// A served, auditable file plus the ledger its verdicts go to.
pub struct Rig {
    pub spec: Workload,
    pub seed: u64,
    pub file_id: String,
    pub keys: PorKeys,
    pub arena: TaggedArena,
    pub device: SigningKey,
    pub tpa: SigningKey,
    pub server: MuxProverServer,
    pub ledger_path: PathBuf,
    pub ledger: Arc<Mutex<LedgerWriter>>,
    /// Seconds `encode_arena_threads(.., C)` took inside this set-up.
    pub encode_s: f64,
    /// Seconds the whole set-up took.
    pub setup_s: f64,
}

/// One auditor thread's state: the TPA side and the verifier device.
pub struct AuditCtx {
    pub auditor: Auditor,
    pub verifier: WallClockVerifier,
    /// The benchmark-local twin of the verifier, used by traced runs.
    pub local: crate::drive::LocalVerifier,
}

pub fn encoder() -> PorEncoder {
    PorEncoder::new(PorParams::paper())
}

/// Starts a reactor server over `segments` of `file_id`.
pub fn serve(
    file_id: &str,
    segments: Vec<Bytes>,
    service_delay: Duration,
) -> std::io::Result<MuxProverServer> {
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store.lock().insert(file_id.to_owned(), segments);
    MuxProverServer::spawn_reactor(store, service_delay)
}

impl Rig {
    /// Key generation, encode on [`C`] threads, store load, server spawn
    /// and ledger creation — the span `setup_s` reports. `tag` keeps the
    /// ledger files of repeated set-ups apart.
    pub fn build(spec: &Workload, seed: u64, data: &[u8], tag: &str) -> Rig {
        let started = Instant::now();
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        let file_id = format!("file-{seed:016x}");
        let keys = PorKeys::derive(&master, &file_id);
        let device = SigningKey::generate(&mut rng);
        let tpa = SigningKey::generate(&mut rng);

        let encode_started = Instant::now();
        let arena = encoder().encode_arena_threads(data, &keys, &file_id, C);
        let encode_s = encode_started.elapsed().as_secs_f64();

        let server =
            serve(&file_id, arena.segments(), spec.service_delay).expect("bind loopback server");

        let ledger_path = out_dir().join(format!(
            "ledger-{}-{seed}-{}-{tag}.gpev",
            spec.name,
            std::process::id()
        ));
        remove_ledger(&ledger_path);
        let writer = LedgerWriter::create(&ledger_path, &tpa, spec.checkpoint_interval, seed)
            .expect("create ledger");
        Rig {
            spec: *spec,
            seed,
            file_id,
            keys,
            arena,
            device,
            tpa,
            server,
            ledger_path,
            ledger: Arc::new(Mutex::new(writer)),
            encode_s,
            setup_s: started.elapsed().as_secs_f64(),
        }
    }

    /// State for auditor thread `i`; its RNG streams derive from the seed.
    pub fn audit_ctx(&self, i: usize) -> AuditCtx {
        let lane = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 + 1);
        AuditCtx {
            auditor: Auditor::new(
                self.file_id.clone(),
                self.arena.segment_count(),
                encoder(),
                self.keys.auditor_view(),
                self.device.verifying_key(),
                BRISBANE,
                Km(25.0),
                TimingPolicy::paper(),
                lane,
            ),
            verifier: WallClockVerifier::new(
                self.device.clone(),
                GpsReceiver::new(BRISBANE),
                lane.rotate_left(17),
            ),
            local: crate::drive::LocalVerifier::new(
                self.device.clone(),
                GpsReceiver::new(BRISBANE),
                lane.rotate_left(29),
            ),
        }
    }

    /// Prover name `i`, seed-derived.
    pub fn prover_name(&self, i: usize) -> String {
        format!("prover-{:08x}-{i:04}", self.seed as u32)
    }

    /// Stops the server and deletes the ledger.
    pub fn teardown(mut self) {
        self.server.shutdown();
        let path = self.ledger_path.clone();
        drop(self);
        remove_ledger(&path);
    }
}

pub fn remove_ledger(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
    let mut lock = path.as_os_str().to_owned();
    lock.push(".lock");
    std::fs::remove_file(lock).ok();
}
