#include "src/replication/replicator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/io/workflow_xml.h"
#include "src/speclabel/scheme.h"

namespace skl {

Status ApplyLogOp(ProvenanceService& service, const LogOp& op) {
  switch (op.kind) {
    case LogOp::Kind::kAddRun:
    case LogOp::Kind::kImportRun:
      return service.RestoreRun(op.run_id, op.stats, op.blob);
    case LogOp::Kind::kRemoveRun: {
      Status removed = service.RemoveRun(RunId::FromValue(op.run_id));
      // Idempotent re-apply (snapshot/stream overlap, replayed recovery):
      // the run being gone already is the desired end state.
      if (removed.code() == StatusCode::kNotFound) return Status::OK();
      return removed;
    }
    case LogOp::Kind::kSnapshotBarrier:
      return Status::OK();
    case LogOp::Kind::kSpecDelta: {
      SKL_ASSIGN_OR_RETURN(SpecDelta delta, DeserializeSpecDelta(op.blob));
      // op.stats.epoch is the epoch the delta produced on the primary; the
      // replica path enforces chain continuity and skips already-applied
      // epochs (snapshot/stream overlap).
      return service.ApplySpecDeltaReplicated(delta, op.stats.epoch);
    }
  }
  return Status::InvalidArgument(
      "log op kind " +
      std::to_string(static_cast<unsigned>(op.kind)) +
      " is not applicable");
}

Result<RecoveredPrimary> RecoverPrimary(
    const std::string& oplog_path,
    ProvenanceService::Options service_options,
    OpLog::Options oplog_options) {
  SKL_ASSIGN_OR_RETURN(OpLogReplay replay, OpLog::ReplayFile(oplog_path));
  SKL_ASSIGN_OR_RETURN(Specification spec,
                       ReadSpecificationXml(replay.spec_xml));
  SKL_ASSIGN_OR_RETURN(SpecSchemeKind kind,
                       ParseSpecSchemeKind(replay.scheme_name));
  SKL_ASSIGN_OR_RETURN(
      ProvenanceService service,
      ProvenanceService::Create(std::move(spec), kind, service_options));
  for (LogOp& op : replay.ops) {
    if (op.kind == LogOp::Kind::kSnapshotBarrier) {
      // The registry was replaced wholesale here; recovery chains through
      // the recorded snapshot file instead of replaying across it.
      const std::string snapshot_path(op.blob.begin(), op.blob.end());
      Result<ProvenanceService> loaded =
          ProvenanceService::LoadSnapshot(snapshot_path, service_options);
      if (!loaded.ok()) {
        return Status::Internal(
            "op-log entry at LSN " + std::to_string(op.lsn) +
            " chains through snapshot '" + snapshot_path +
            "', which no longer loads: " + loaded.status().message());
      }
      service = std::move(*loaded);
      continue;
    }
    Status applied = ApplyLogOp(service, op);
    if (!applied.ok()) {
      return Status::Internal(
          "op-log entry at LSN " + std::to_string(op.lsn) +
          " does not apply: " + applied.message());
    }
    op.blob = {};  // the service holds the run now; drop the log's copy
  }
  // Open (which truncates any torn tail) from this replay, *before*
  // attaching: replaying RemoveRun ops through a service that already has
  // the log attached would re-append them.
  SKL_ASSIGN_OR_RETURN(
      std::unique_ptr<OpLog> oplog,
      OpLog::Open(oplog_path, replay.spec_xml, replay.scheme_name,
                  oplog_options, &replay));
  service.AttachOpLog(oplog.get());
  return RecoveredPrimary{std::move(service), std::move(oplog)};
}

// ------------------------------------------------------------ ReadReplica --

ReadReplica::ReadReplica(Options options, std::string primary_host,
                         uint16_t primary_port)
    : options_(std::move(options)),
      primary_host_(std::move(primary_host)),
      primary_port_(primary_port) {}

Result<std::unique_ptr<ReadReplica>> ReadReplica::Start(
    const std::string& primary_host, uint16_t primary_port,
    Options options) {
  SKL_ASSIGN_OR_RETURN(
      ProvenanceClient client,
      ProvenanceClient::Connect(primary_host, primary_port, options.client));
  client.set_trace_id(options.trace_id);
  SKL_ASSIGN_OR_RETURN(SnapshotFetchResult snap, client.SnapshotFetch());
  SKL_ASSIGN_OR_RETURN(ProvenanceService service,
                       ProvenanceService::LoadSnapshotBytes(
                           std::move(snap.bytes), options.service));
  ProvenanceServer::Options server_options;
  server_options.port = options.port;
  server_options.bind_address = options.listen_address;
  server_options.num_threads = options.num_threads;
  server_options.read_only = true;
  SKL_ASSIGN_OR_RETURN(
      std::unique_ptr<ProvenanceServer> server,
      ProvenanceServer::Start(std::move(service), server_options));
  server->SetReplicationLsns(snap.lsn, snap.lsn);

  auto replica = std::unique_ptr<ReadReplica>(
      new ReadReplica(std::move(options), primary_host, primary_port));
  replica->server_ = std::move(server);
  replica->client_.emplace(std::move(client));
  replica->applied_.store(snap.lsn, std::memory_order_release);
  replica->tail_thread_ = std::thread(&ReadReplica::TailLoop, replica.get());
  return replica;
}

ReadReplica::~ReadReplica() { Stop(); }

void ReadReplica::Stop() {
  {
    std::lock_guard lock(err_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  if (tail_thread_.joinable()) tail_thread_.join();
  server_->Shutdown();
}

Status ReadReplica::WaitForLsn(uint64_t lsn, uint64_t timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const uint64_t applied = applied_.load(std::memory_order_acquire);
    if (applied >= lsn) return Status::OK();
    Status err = tail_error();
    if (!err.ok()) return err;
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable(
          "replica applied LSN " + std::to_string(applied) +
          ", did not reach LSN " + std::to_string(lsn) + " within " +
          std::to_string(timeout_ms) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status ReadReplica::tail_error() const {
  std::lock_guard lock(err_mu_);
  return tail_error_;
}

void ReadReplica::RecordError(Status status) {
  std::lock_guard lock(err_mu_);
  tail_error_ = std::move(status);
}

Status ReadReplica::Rebootstrap() {
  SKL_ASSIGN_OR_RETURN(SnapshotFetchResult snap, client_->SnapshotFetch());
  SKL_ASSIGN_OR_RETURN(ProvenanceService service,
                       ProvenanceService::LoadSnapshotBytes(
                           std::move(snap.bytes), options_.service));
  server_->ReplaceService(std::move(service));
  applied_.store(snap.lsn, std::memory_order_release);
  return Status::OK();
}

void ReadReplica::TailLoop() {
  unsigned failures = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    Result<LogBatch> batch =
        client_->Subscribe(applied_.load(std::memory_order_acquire),
                           options_.max_batch);
    if (!batch.ok()) {
      // The primary is unreachable (or desynced us): remember why, back
      // off, reconnect, try again. The replica keeps serving reads at its
      // current LSN the whole time.
      RecordError(batch.status());
      ++failures;
      const int shift = failures < 20 ? static_cast<int>(failures) : 20;
      const uint64_t delay_ms = std::min<uint64_t>(
          options_.client.backoff_max_ms,
          static_cast<uint64_t>(
              std::max<uint32_t>(options_.client.backoff_base_ms, 1))
              << shift);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      if (stop_.load(std::memory_order_acquire)) return;
      Result<ProvenanceClient> fresh = ProvenanceClient::Connect(
          primary_host_, primary_port_, options_.client);
      if (fresh.ok()) {
        fresh->set_trace_id(options_.trace_id);
        client_.emplace(std::move(*fresh));
      }
      continue;
    }
    failures = 0;
    RecordError(Status::OK());  // a good batch ends a transport failure
    bool rebootstrapped = false;
    for (const LogOp& op : batch->ops) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (op.kind == LogOp::Kind::kSnapshotBarrier) {
        Status rc = Rebootstrap();
        if (!rc.ok()) {
          // Treated like a transport failure: retry the whole cycle from
          // the old applied LSN (the barrier will come again).
          RecordError(rc);
        }
        rebootstrapped = true;
        break;  // the snapshot superseded the rest of the batch
      }
      Status applied = Status::OK();
      server_->WithServiceShared([&](ProvenanceService& service) {
        applied = ApplyLogOp(service, op);
      });
      if (!applied.ok()) {
        // An op that does not apply is not retryable — the stream and the
        // local state disagree. Freeze: keep serving at the current LSN,
        // report via tail_error/WaitForLsn.
        RecordError(Status::Internal(
            "replicated op at LSN " + std::to_string(op.lsn) +
            " does not apply: " + applied.message()));
        return;
      }
      applied_.store(op.lsn, std::memory_order_release);
    }
    server_->SetReplicationLsns(applied_.load(std::memory_order_acquire),
                                batch->primary_last_lsn);
    if (!rebootstrapped && batch->ops.empty()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.poll_interval_ms));
    }
  }
}

}  // namespace skl
