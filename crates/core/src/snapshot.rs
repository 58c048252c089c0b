//! Checkpoint snapshots: full simulator state as a versioned byte image.
//!
//! A [`Snapshot`] captures everything a [`crate::sim::Simulator`] needs to
//! resume bit-identically in a fresh process: the complete [`SimConfig`]
//! (so the restored machine has the same geometry), the synthesized
//! [`Program`] image, and an opaque state section written by the
//! simulator's single `state` visitor (oracle cursor and RNG, every
//! predictor table, BTB hierarchy, caches, back-end, statistics,
//! fault-injector position, flight-recorder tail). The same visitor reads
//! the section back ([`elf_types::StateIo`]), so the layout is written
//! once.
//!
//! The byte layout is the hand-rolled [`elf_types::snap`] format behind an
//! 8-byte magic and a `u32` version, followed by an FNV-1a/64 checksum of
//! every byte before it, so a corrupted file is rejected instead of
//! resuming with altered state. Bump [`SNAPSHOT_VERSION`] on *any* layout
//! change, in any component — the format is not self-describing.
//!
//! ```
//! use elf_core::{SimConfig, Simulator, Snapshot};
//! use elf_frontend::FetchArch;
//! use elf_trace::workloads;
//!
//! let w = workloads::by_name("641.leela").unwrap();
//! let mut sim = Simulator::try_for_workload(SimConfig::baseline(FetchArch::Dcf), &w).unwrap();
//! sim.run(5_000).unwrap();
//! let snap = sim.checkpoint();
//! let bytes = snap.to_bytes();
//! let resumed = Simulator::restore(&Snapshot::from_bytes(&bytes).unwrap()).unwrap();
//! assert_eq!(resumed.cycle(), sim.cycle());
//! ```

use crate::config::SimConfig;
use crate::error::SimError;
use elf_trace::Program;
use elf_types::{Snap, SnapError, SnapReader, SnapWriter};
use std::path::Path;
use std::sync::Arc;

/// File magic prefixed to every serialized snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ELFSNAP\0";

/// Current snapshot layout version. Readers reject any other value: the
/// format is not self-describing, so a layout change anywhere in the
/// serialized state must bump this.
pub const SNAPSHOT_VERSION: u32 = 8;

/// Bytes before the parsed sections: magic and version.
const HEADER_BYTES: usize = SNAPSHOT_MAGIC.len() + 4;

/// FNV-1a/64 of `bytes`: the checksum that ends every serialized snapshot.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A complete, restorable simulator checkpoint.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Layout version the state bytes were written under.
    pub version: u32,
    /// Full machine configuration.
    pub cfg: SimConfig,
    /// The simulated program image.
    pub prog: Arc<Program>,
    /// Cycle the checkpoint was taken at (informational; also inside
    /// `state`).
    pub cycle: u64,
    /// Instructions retired since the last stats reset at checkpoint time
    /// (informational; also inside `state`).
    pub retired: u64,
    /// Opaque dynamic-state section (the layout of the simulator's `state`
    /// visitor).
    pub state: Vec<u8>,
}

impl Snapshot {
    /// Serializes the snapshot to a standalone byte image
    /// (magic + version + config + program + state + checksum).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.raw(&SNAPSHOT_MAGIC);
        SNAPSHOT_VERSION.save(&mut w);
        self.cfg.save(&mut w);
        self.prog.save(&mut w);
        self.cycle.save(&mut w);
        self.retired.save(&mut w);
        self.state.save(&mut w);
        let mut bytes = w.into_bytes();
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Decodes a snapshot from bytes produced by [`Snapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] on bad magic, an unsupported
    /// version, a checksum that does not match the bytes, or truncated or
    /// corrupt config and program sections, checked in that order. The
    /// opaque state section is validated later, by
    /// [`crate::sim::Simulator::restore`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        Snapshot::decode(bytes).map_err(|e| SimError::Snapshot {
            reason: e.to_string(),
        })
    }

    fn decode(bytes: &[u8]) -> Result<Self, SnapError> {
        let r = &mut SnapReader::new(bytes);
        let magic = r.raw(SNAPSHOT_MAGIC.len(), "snapshot magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapError::mismatch(format!(
                "bad magic {magic:02x?} (not an ELF-sim snapshot)"
            )));
        }
        let version = u32::load(r)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::mismatch(format!(
                "snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            )));
        }
        let (body, sum) = bytes
            .len()
            .checked_sub(8)
            .filter(|&n| n >= HEADER_BYTES)
            .map(|n| bytes.split_at(n))
            .ok_or(SnapError::UnexpectedEof {
                what: "snapshot checksum",
            })?;
        // invariant: `split_at` left exactly 8 bytes in `sum`.
        if fnv1a64(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
            return Err(SnapError::mismatch(
                "checksum does not match the contents (corrupt file)",
            ));
        }
        let r = &mut SnapReader::new(&body[HEADER_BYTES..]);
        let cfg = SimConfig::load(r)?;
        let prog = Arc::new(Program::load(r)?);
        let cycle = Snap::load(r)?;
        let retired = Snap::load(r)?;
        let state = Snap::load(r)?;
        Ok(Snapshot {
            version,
            cfg,
            prog,
            cycle,
            retired,
            state,
        })
    }

    /// Writes the serialized snapshot to `path` (atomically: a temp file
    /// in the same directory is renamed into place, so an interrupted
    /// write never leaves a truncated snapshot behind).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] wrapping any I/O failure.
    pub fn write_to(&self, path: &Path) -> Result<(), SimError> {
        let io = |e: std::io::Error| SimError::Snapshot {
            reason: format!("writing {}: {e}", path.display()),
        };
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_bytes()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Reads and decodes a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] on I/O failure or a corrupt file.
    pub fn read_from(path: &Path) -> Result<Self, SimError> {
        let bytes = std::fs::read(path).map_err(|e| SimError::Snapshot {
            reason: format!("reading {}: {e}", path.display()),
        })?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use elf_frontend::{CoupledCondKind, ElfVariant, FetchArch};

    fn roundtrip_cfg(cfg: &SimConfig) -> SimConfig {
        let mut w = SnapWriter::new();
        cfg.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let out = SimConfig::load(&mut r).expect("config round-trips");
        assert_eq!(r.remaining(), 0, "config bytes fully consumed");
        out
    }

    #[test]
    fn baseline_configs_round_trip_for_every_arch() {
        for arch in [
            FetchArch::NoDcf,
            FetchArch::Dcf,
            FetchArch::Elf(ElfVariant::L),
            FetchArch::Elf(ElfVariant::Ret),
            FetchArch::Elf(ElfVariant::Ind),
            FetchArch::Elf(ElfVariant::Cond),
            FetchArch::Elf(ElfVariant::U),
        ] {
            let cfg = SimConfig::baseline(arch);
            assert_eq!(roundtrip_cfg(&cfg), cfg);
        }
    }

    #[test]
    fn customized_config_round_trips() {
        let mut cfg = SimConfig::baseline(FetchArch::Elf(ElfVariant::U));
        cfg.frontend.cpl_cond_kind = CoupledCondKind::Gshare { hist_bits: 9 };
        cfg.frontend.btb_miss_probe = true;
        cfg.backend.rob_entries = 64;
        cfg.fault = Some(FaultPlan::single(FaultKind::CorruptBtb, 25, 7));
        cfg.recorder_events = 128;
        cfg.progress_cap_base = 12_345;
        cfg.idle_skip = false;
        cfg.metrics = true;
        cfg.check = true;
        assert_eq!(roundtrip_cfg(&cfg), cfg);
    }

    #[test]
    fn bad_magic_is_rejected_as_a_value() {
        let err = Snapshot::from_bytes(b"NOTASNAP-not-a-snapshot").expect_err("bad magic");
        let msg = err.to_string();
        assert!(msg.contains("magic"), "{msg}");
    }

    #[test]
    fn truncated_snapshot_is_rejected_as_a_value() {
        assert!(Snapshot::from_bytes(&SNAPSHOT_MAGIC[..4]).is_err());
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        assert!(
            Snapshot::from_bytes(&bytes).is_err(),
            "version-only stream is truncated"
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        let err = Snapshot::from_bytes(&bytes).expect_err("version must match");
        assert!(err.to_string().contains("version"), "{err}");
    }
}
