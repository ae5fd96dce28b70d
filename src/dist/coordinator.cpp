#include "dist/coordinator.hpp"

#include "support/error.hpp"
#include "support/serial.hpp"

namespace fgpar::dist {

namespace {

LeaseTable::Config LeaseConfigFor(const Coordinator::Config& config) {
  LeaseTable::Config lease;
  lease.total_points = config.labels.size();
  lease.slice_points = config.slice_points;
  lease.lease_ms = config.lease_ms;
  lease.crash_budget = config.crash_budget;
  lease.target_slice_ms = config.target_slice_ms;
  return lease;
}

}  // namespace

Coordinator::Coordinator(Config config)
    : config_(std::move(config)),
      fingerprint_(harness::GridFingerprint(config_.name, config_.labels)),
      leases_(LeaseConfigFor(config_)) {
  FGPAR_CHECK_MSG(!config_.labels.empty(),
                  "Coordinator needs a non-empty grid");
  if (!config_.checkpoint_path.empty()) {
    journal_.emplace(config_.checkpoint_path, config_.name, fingerprint_);
  }
}

void Coordinator::AdoptPoints(const std::map<std::size_t, std::string>& points) {
  std::map<std::size_t, std::string> accepted;
  for (const auto& [index, payload] : points) {
    if (index >= config_.labels.size()) {
      continue;
    }
    if (leases_.Complete(index)) {
      points_[index] = payload;
      accepted.emplace(index, payload);
    }
  }
  if (journal_) {
    // In-memory only; the next RecordPoint persists everything.  Until
    // then the merged data still lives in the source journals on disk.
    journal_->RestorePoints(points_);
  }
  (void)accepted;
}

CoordinatorReply Coordinator::Apply(const WorkerReport& report,
                                    std::uint64_t now_ms) {
  CoordinatorReply reply;
  reply.lease_ms = config_.lease_ms;
  reply.heartbeat_ms = config_.heartbeat_ms;
  reply.retry_ms = config_.retry_ms;

  if (report.fingerprint != fingerprint_) {
    reply.code = 400;
    reply.error = "grid fingerprint mismatch: worker " +
                  Hex64(report.fingerprint) + ", coordinator " +
                  Hex64(fingerprint_) +
                  " — the worker is running a different grid";
    return reply;
  }

  const bool lease_known =
      report.lease_id != 0 && leases_.leases().count(report.lease_id) != 0;
  reply.lease_revoked = report.lease_id != 0 && !lease_known;

  // Completions first — they are durable the moment they are journaled,
  // and they count even from a revoked lease (the work is done and
  // deterministic; first-committed-wins handles any race).
  for (const CompletedPoint& point : report.completed) {
    if (point.index >= config_.labels.size()) {
      continue;  // out-of-range: a broken worker, not a broken sweep
    }
    if (leases_.Complete(point.index)) {
      points_[point.index] = point.payload;
      if (journal_) {
        journal_->RecordPoint(point.index, point.payload);
      }
      // First commit only: a duplicate's timing re-measures work the EWMA
      // already counted, and racing late commits would make grant sizes
      // depend on which worker lost the race.
      leases_.RecordPointCost(point.wall_ms);
    } else {
      ++duplicate_commits_;
    }
  }
  for (const FailedPoint& point : report.failed) {
    if (point.index >= config_.labels.size()) {
      continue;
    }
    leases_.QuarantineReported(point.index, point.message);
    reported_failures_.emplace(point.index, point);
  }

  // The lease may have legitimately vanished above (its last point
  // committed); only a lease that was already gone on entry is "revoked"
  // from the worker's point of view.
  if (lease_known) {
    leases_.Renew(report.lease_id, now_ms);
    if (report.has_in_progress) {
      leases_.SetInProgress(report.lease_id, report.in_progress);
    }
    const auto it = leases_.leases().find(report.lease_id);
    if (it != leases_.leases().end()) {
      reply.owned.assign(it->second.points.begin(), it->second.points.end());
      reply.lease_id = report.lease_id;
    }
  }

  if (report.want_work) {
    const LeaseGrant grant = leases_.Acquire(report.worker, now_ms);
    if (grant.lease_id != 0) {
      reply.grant = Grant::kLease;
      reply.lease_id = grant.lease_id;
      reply.points = grant.points;
      reply.owned = grant.points;
    } else {
      reply.grant = leases_.Done() ? Grant::kDone : Grant::kWait;
    }
  } else {
    reply.grant = leases_.Done() ? Grant::kDone : Grant::kWait;
  }
  return reply;
}

std::vector<Coordinator::FailureInfo> Coordinator::failures() const {
  std::vector<FailureInfo> out;
  for (const auto& [index, reason] : leases_.quarantined()) {
    FailureInfo info;
    info.index = index;
    const auto it = reported_failures_.find(index);
    if (it != reported_failures_.end()) {
      info.message = it->second.message;
      info.repro_bundle = it->second.repro_bundle;
    } else {
      info.message = reason;
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace fgpar::dist
