//! Output digests pinned for the default workload seed
//! ([`crate::gen::DEFAULT_SEED`]). Every run checks them after its timed
//! window, whatever its `--seed`, so a change that alters what the program
//! outputs fails the benchmark instead of timing a different program.

/// FNV-1a of the agent-campaign verdict table as JSON lines. It holds no
/// seed when every run passes, so every op of every workload seed must
/// give it.
pub const CAMPAIGN_TABLE: u64 = 0x7298_689a_ee3b_a22c;

/// FNV-1a of the trajectory JSON lines that `campaign::replay` gives for
/// the first two runs of the default seed's first agent-campaign op.
pub const CAMPAIGN_REPLAY: u64 = 0xe3df_88b9_1062_b931;

/// FNV-1a of the streamed bytes of the default seed's counting-stream
/// ops, in `COUNTING_SPECS` order: churn, burst, topoxl.
pub const COUNTING_STREAMS: [u64; 3] = [
    0x4684_feba_0c08_112d,
    0x36b7_8100_bc3e_7446,
    0x6ed9_cdd5_30de_db48,
];
