#include "core/snapshot.hpp"

#include <algorithm>
#include <filesystem>

#include "common/binio.hpp"
#include "sca/model.hpp"

namespace slm::core {

namespace {

constexpr char kSnapMagic[] = "SLMSNAP1";

}  // namespace

RangeLedger::RangeLedger(std::uint64_t total) : total_(total) {}

void RangeLedger::cover(TraceRange r) {
  if (r.begin >= r.end) {
    throw SnapshotRangeError("range ledger: empty or inverted trace range [" +
                             std::to_string(r.begin) + ", " +
                             std::to_string(r.end) + ")");
  }
  if (r.end > total_) {
    throw SnapshotRangeError("range ledger: range [" +
                             std::to_string(r.begin) + ", " +
                             std::to_string(r.end) +
                             ") exceeds the campaign budget of " +
                             std::to_string(total_) + " traces");
  }
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), r,
      [](const TraceRange& a, const TraceRange& b) { return a.begin < b.begin; });
  const auto overlap = [&](const TraceRange& existing) {
    throw SnapshotRangeError(
        "range ledger: range [" + std::to_string(r.begin) + ", " +
        std::to_string(r.end) + ") overlaps already-covered [" +
        std::to_string(existing.begin) + ", " + std::to_string(existing.end) +
        ") — merging it would double-count traces");
  };
  if (it != ranges_.begin() && std::prev(it)->end > r.begin) {
    overlap(*std::prev(it));
  }
  if (it != ranges_.end() && it->begin < r.end) overlap(*it);
  it = ranges_.insert(it, r);
  // Coalesce with touching neighbours so ranges() stays canonical.
  if (it != ranges_.begin() && std::prev(it)->end == it->begin) {
    std::prev(it)->end = it->end;
    it = ranges_.erase(it);
    --it;
  }
  if (std::next(it) != ranges_.end() && it->end == std::next(it)->begin) {
    it->end = std::next(it)->end;
    ranges_.erase(std::next(it));
  }
}

std::uint64_t RangeLedger::covered() const {
  std::uint64_t n = 0;
  for (const TraceRange& r : ranges_) n += r.count();
  return n;
}

std::vector<TraceRange> RangeLedger::missing() const {
  std::vector<TraceRange> gaps;
  std::uint64_t cursor = 0;
  for (const TraceRange& r : ranges_) {
    if (cursor < r.begin) gaps.push_back(TraceRange{cursor, r.begin});
    cursor = r.end;
  }
  if (cursor < total_) gaps.push_back(TraceRange{cursor, total_});
  return gaps;
}

std::size_t save_snapshot(const std::string& path,
                          const AccumulatorSnapshot& snap) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    SLM_REQUIRE(!ec, "snapshot: cannot create directory '" +
                         parent.string() + "'");
  }
  ByteWriter head;
  snap.id.save(head);
  head.put_u64(snap.ranges.size());
  for (const TraceRange& r : snap.ranges) {
    head.put_u64(r.begin);
    head.put_u64(r.end);
  }
  head.put_u64(snap.progress.size());
  head.put_u64(snap.accumulator.size());
  // The progress section and the accumulator are written from where
  // they lie, not copied.
  return write_framed_file(path, kSnapMagic, kSnapshotVersion,
                           {head.bytes(), snap.progress, snap.accumulator},
                           "snapshot");
}

AccumulatorSnapshot load_snapshot(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> payload;
  try {
    payload = read_framed_file(path, kSnapMagic, kSnapshotVersion, "snapshot");
  } catch (const Error& e) {
    throw SnapshotFormatError(e.what());
  }
  if (!payload) {
    throw SnapshotFormatError("snapshot: no file at '" + path + "'");
  }

  AccumulatorSnapshot snap;
  snap.source = path;
  try {
    ByteReader in(payload->data(), payload->size());
    snap.id = store::StoreIdentity::load(in);
    SLM_REQUIRE(snap.id.rng_contract == 2,
                "snapshot: SLMSNAP1 requires RNG contract v2, file claims v" +
                    std::to_string(snap.id.rng_contract));
    const auto kind = static_cast<store::StoreKind>(snap.id.kind);
    SLM_REQUIRE(kind == store::StoreKind::kByteCampaign ||
                    kind == store::StoreKind::kFullKey,
                "snapshot: unknown campaign kind " +
                    std::to_string(snap.id.kind));
    const std::uint64_t range_count = in.get_u64();
    SLM_REQUIRE(range_count <= in.remaining() / 16,
                "snapshot: range table overruns payload");
    snap.ranges.reserve(range_count);
    for (std::uint64_t i = 0; i < range_count; ++i) {
      TraceRange r;
      r.begin = in.get_u64();
      r.end = in.get_u64();
      snap.ranges.push_back(r);
    }
    const std::uint64_t progress_size = in.get_u64();
    const std::uint64_t acc_size = in.get_u64();
    SLM_REQUIRE(progress_size <= in.remaining() &&
                    acc_size == in.remaining() - progress_size,
                "snapshot: section sizes do not match the payload");
    snap.progress.resize(progress_size);
    in.get_bytes(snap.progress.data(), progress_size);
    snap.accumulator.resize(acc_size);
    in.get_bytes(snap.accumulator.data(), acc_size);
  } catch (const Error& e) {
    throw SnapshotFormatError(std::string(e.what()) + " (in '" + path +
                              "')");
  }

  // Range discipline is a separate failure class from file corruption:
  // a structurally valid file claiming overlapping coverage must fail
  // as a double-count, not as "corrupt".
  RangeLedger ledger(snap.id.trace_count);
  for (const TraceRange& r : snap.ranges) {
    try {
      ledger.cover(r);
    } catch (const SnapshotRangeError& e) {
      throw SnapshotRangeError(std::string(e.what()) + " (in '" + path +
                               "')");
    }
  }
  return snap;
}

AccumulatorSnapshot merge_snapshots(
    const std::vector<AccumulatorSnapshot>& parts) {
  SLM_REQUIRE(!parts.empty(), "merge: no snapshots to merge");
  const store::StoreIdentity& id = parts[0].id;
  const auto name = [&](std::size_t i) {
    return parts[i].source.empty() ? "snapshot #" + std::to_string(i)
                                   : "'" + parts[i].source + "'";
  };
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string diff = parts[i].id.differences(id);
    if (!diff.empty()) {
      throw SnapshotMismatch("merge: " + name(i) +
                             " was captured under a different campaign than " +
                             name(0) + " (" + diff + ")");
    }
  }

  RangeLedger ledger(id.trace_count);
  for (const AccumulatorSnapshot& part : parts) {
    for (const TraceRange& r : part.ranges) {
      try {
        ledger.cover(r);
      } catch (const SnapshotRangeError& e) {
        throw SnapshotRangeError(
            std::string(e.what()) +
            (part.source.empty() ? "" : " (while merging '" + part.source +
                                            "')"));
      }
    }
  }

  const std::size_t samples = static_cast<std::size_t>(id.samples);
  const auto load_acc = [&](auto& acc, const AccumulatorSnapshot& part) {
    try {
      ByteReader in(part.accumulator.data(), part.accumulator.size());
      acc.load(in);
      SLM_REQUIRE(in.done(), "snapshot: trailing accumulator bytes");
    } catch (const Error& e) {
      throw SnapshotFormatError(
          std::string(e.what()) +
          (part.source.empty() ? "" : " (in '" + part.source + "')"));
    }
  };
  AccumulatorSnapshot out;
  out.id = id;
  out.ranges = ledger.ranges();
  ByteWriter acc_out;
  const auto merge_all = [&](auto merged, auto one) {
    for (const AccumulatorSnapshot& part : parts) {
      load_acc(one, part);
      merged.merge(one);
    }
    merged.save(acc_out);
  };
  if (id.kind == static_cast<std::uint8_t>(store::StoreKind::kFullKey)) {
    merge_all(sca::MultiByteCpa(samples), sca::MultiByteCpa(samples));
  } else {
    merge_all(sca::XorClassCpa(samples), sca::XorClassCpa(samples));
  }
  out.accumulator = acc_out.take();
  return out;
}

sca::CpaEngine fold_snapshot_byte(const AccumulatorSnapshot& snap,
                                  std::size_t key_byte) {
  const std::size_t samples = static_cast<std::size_t>(snap.id.samples);
  ByteReader in(snap.accumulator.data(), snap.accumulator.size());
  const sca::LastRoundBitModel model(key_byte, snap.id.target_bit);
  if (snap.id.kind == static_cast<std::uint8_t>(store::StoreKind::kFullKey)) {
    SLM_REQUIRE(key_byte < sca::MultiByteCpa::kBytes,
                "fold: key byte out of range");
    sca::MultiByteCpa mb(samples);
    mb.load(in);
    SLM_REQUIRE(in.done(), "snapshot: trailing accumulator bytes");
    return mb.fold(key_byte, model.pattern().data());
  }
  SLM_REQUIRE(key_byte == snap.id.target_key_byte,
              "fold: single-byte snapshot targets key byte " +
                  std::to_string(snap.id.target_key_byte));
  sca::XorClassCpa cls(samples);
  cls.load(in);
  SLM_REQUIRE(in.done(), "snapshot: trailing accumulator bytes");
  return cls.fold(model.pattern().data());
}

std::string checkpoint_file(const std::string& dir) {
  return (std::filesystem::path(dir) / "campaign.ckpt").string();
}

std::optional<AccumulatorSnapshot> load_checkpoint(
    const std::string& dir, const store::StoreIdentity& expected) {
  const std::string path = checkpoint_file(dir);
  if (!std::filesystem::exists(path)) return std::nullopt;
  // Every refusal is a plain Error: a resume that cannot continue is a
  // failed run (exit 1), whatever the reason.
  AccumulatorSnapshot ck;
  try {
    ck = load_snapshot(path);
  } catch (const Error& e) {
    throw Error("resume: checkpoint '" + path + "' is unreadable (" +
                e.what() +
                ") — start fresh; a checkpoint written before SLMSNAP1 "
                "version 2 is not read either");
  }
  const std::string diff = ck.id.differences(expected);
  SLM_REQUIRE(diff.empty(), "resume: checkpoint '" + path +
                                "' was taken under a different campaign (" +
                                diff +
                                ") — resume with the flags it was taken "
                                "under, or start fresh");
  SLM_REQUIRE(ck.ranges.size() == 1 && ck.ranges[0].begin == 0,
              "resume: '" + path +
                  "' is not a campaign checkpoint (it must cover one range "
                  "[0, n))");
  SLM_REQUIRE(ck.ranges[0].end < expected.trace_count,
              "resume: checkpoint '" + path + "' is already complete (" +
                  std::to_string(ck.ranges[0].end) + "/" +
                  std::to_string(expected.trace_count) + " traces)");
  SLM_REQUIRE(!ck.progress.empty(),
              "resume: '" + path +
                  "' has no progress section — a fabric snapshot merges, "
                  "it does not resume");
  return ck;
}

}  // namespace slm::core
