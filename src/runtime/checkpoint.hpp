// Durable round-level checkpoints for long detection runs.
//
// PR 1's failover masks *partial* failures (a dead phase group's work moves
// to an intact replica). A checkpoint masks *total* failures: the host dies,
// the job is preempted, the whole world is gone — and the next invocation
// resumes from the last completed snapshot instead of round 0.
//
// A RoundCheckpoint captures everything a bit-exact resume needs:
//   - the next round to run (and, for mid-round snapshots, how many phase
//     waves of that round are already folded into the accumulators),
//   - every rank's XOR accumulator bytes (self-inverse, so a resumed rank
//     continues folding phases into the restored value),
//   - every rank's virtual clock, comm-event counter and CommStats — the
//     fault plan keys kills on (event count, vclock), so restoring them
//     makes the resumed run's fault schedule identical to an uninterrupted
//     one,
//   - the driver's own progress (per-round found flags / found cells),
//   - the caller's RNG stream position (util/rng.hpp state), carried
//     opaquely: engine algebra is stateless hashing, but generators that
//     produced the input must not replay on resume.
//
// On disk a snapshot is  magic | version | crc32(payload) | size | payload,
// written to a temp name and atomically renamed — a crash mid-write never
// clobbers the previous good snapshot, and the store falls back past any
// corrupt/truncated file to the newest one that verifies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/cost_model.hpp"

namespace midas::runtime {

/// Typed failure of snapshot serialization, deserialization or storage
/// (corrupt file, truncated payload, version/config mismatch, I/O error).
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error("checkpoint: " + what) {}
};

/// One resumable point of a detection run. Shared by the k-path, directed,
/// tree, scan and weighted drivers; driver-specific progress lives in the
/// opaque `driver_state` bytes.
struct RoundCheckpoint {
  std::uint64_t config_hash = 0;  // fingerprint of the run configuration
  std::uint32_t next_round = 0;   // first round not yet complete
  // Phase waves of `next_round` already in the accumulators (0 = a clean
  // round boundary; > 0 = mid-round snapshot, unsupervised runs only).
  std::uint64_t phase_waves_done = 0;
  std::vector<std::uint8_t> driver_state;           // driver progress bytes
  std::vector<std::vector<std::uint8_t>> accum;     // per-rank accumulator
  std::vector<double> vclocks;                      // per-rank virtual clock
  std::vector<std::uint64_t> events;                // per-rank event counter
  std::vector<CommStats> stats;                     // per-rank counters
  std::vector<std::uint64_t> rng_state;             // caller RNG position
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte span — the
/// integrity guard carried in every snapshot header.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Flatten a checkpoint into the little-endian payload bytes.
[[nodiscard]] std::vector<std::uint8_t> serialize(const RoundCheckpoint& ck);

/// Parse a payload; throws CheckpointError on truncation or garbage.
[[nodiscard]] RoundCheckpoint deserialize(
    std::span<const std::uint8_t> payload);

/// Rotating on-disk snapshot store. Files are sequence-numbered; `write`
/// goes to a temp file and renames atomically, then prunes beyond `keep`.
/// `load_latest` scans newest-first and skips (does not delete) any file
/// that fails verification, so a torn write degrades to the previous good
/// snapshot instead of an unrecoverable run.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir, int keep = 2);

  /// Persist a snapshot; returns the final file path.
  std::string write(const RoundCheckpoint& ck);

  /// Newest snapshot that verifies, or nullopt if none exists.
  [[nodiscard]] std::optional<RoundCheckpoint> load_latest() const;

  /// Load and verify one file; throws CheckpointError on any defect.
  [[nodiscard]] static RoundCheckpoint load_file(const std::string& path);

  /// Snapshot file paths, newest first (verified or not).
  [[nodiscard]] std::vector<std::string> snapshots() const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
  int keep_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace midas::runtime
