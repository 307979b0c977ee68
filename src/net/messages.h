// The wire shape of every request opcode, written once: its request fields
// and its success reply, in wire order, encoded by the field codec of
// protocol.h. The server's dispatch (ServeFrame) and the client's calls
// (Invoke) are both driven by these shapes and by the row facts of
// kOpcodes, which add the trailers: a read token on token-checked reads, a
// trace id on every request, an ack LSN on every acked mutation's reply.
#ifndef SKL_NET_MESSAGES_H_
#define SKL_NET_MESSAGES_H_

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/status.h"
#include "src/core/provenance_service.h"
#include "src/net/protocol.h"
#include "src/replication/oplog.h"

namespace skl {

/// A run id travels as its value.
inline void PutField(PayloadWriter& out, RunId id) { out.U64(id.value()); }
inline bool GetField(FieldReader& in, RunId& id) {
  uint64_t value = 0;
  if (!GetField(in, value)) return false;
  id = RunId::FromValue(value);
  return true;
}

/// An op-log entry travels as a blob of its op-log encoding.
inline void PutField(PayloadWriter& out, const LogOp& op) {
  out.Bytes(SerializeLogOp(op));
}
inline bool GetField(FieldReader& in, LogOp& op) {
  std::span<const uint8_t> entry;
  return in.Take(in.payload.Bytes(), entry) &&
         in.Take(DeserializeLogOp(entry), op);
}

// ------------------------------------------------------------ messages --

/// The reply of a request that answers only success.
using NoFields = std::tuple<>;

/// kSnapshotFetch reply: a snapshot byte-stream that contains every op
/// with LSN <= lsn (tail the log from `lsn` to catch up).
struct SnapshotFetchResult {
  uint64_t lsn = 0;
  std::vector<uint8_t> bytes;

  auto Fields() { return std::tie(lsn, bytes); }
};

/// kSubscribe reply: ops with LSN > the requested after_lsn, in order,
/// plus the primary's log head (the catch-up target).
struct LogBatch {
  std::vector<LogOp> ops;
  uint64_t primary_last_lsn = 0;

  auto Fields() { return std::tie(ops, primary_last_lsn); }
};

/// One request opcode: its success reply and its own request fields, in
/// wire order. The trailers (read token, trace id, ack LSN) are row facts
/// of kOpcodes and never appear here.
template <MsgType T, class ReplyType, class... Fields>
struct Rpc {
  static constexpr MsgType kType = T;
  using Reply = ReplyType;
  using Request = std::tuple<Fields...>;
};

template <class... Ts>
struct TypeList {};

/// Every request opcode's wire shape; the comments name the fields.
namespace rpc {
using Ping = Rpc<MsgType::kPing, NoFields>;
using Reaches =  // run, v, w
    Rpc<MsgType::kReaches, bool, RunId, VertexId, VertexId>;
using ReachesBatch = Rpc<MsgType::kReachesBatch, std::vector<bool>, RunId,
                         std::vector<VertexPair>>;
using DependsOn =  // run, x, x_from
    Rpc<MsgType::kDependsOn, bool, RunId, DataItemId, DataItemId>;
using DependsOnBatch = Rpc<MsgType::kDependsOnBatch, std::vector<bool>,
                           RunId, std::vector<ItemPair>>;
using ModuleDependsOnData =  // run, v, x
    Rpc<MsgType::kModuleDependsOnData, bool, RunId, VertexId, DataItemId>;
using DataDependsOnModule =  // run, x, v
    Rpc<MsgType::kDataDependsOnModule, bool, RunId, DataItemId, VertexId>;
using AddRun = Rpc<MsgType::kAddRun, RunId, std::string>;  // run XML
using ImportRun =  // a ProvenanceStore blob
    Rpc<MsgType::kImportRun, RunId, std::vector<uint8_t>>;
using ExportRun = Rpc<MsgType::kExportRun, std::vector<uint8_t>, RunId>;
using RemoveRun = Rpc<MsgType::kRemoveRun, NoFields, RunId>;
using ListRuns = Rpc<MsgType::kListRuns, std::vector<RunId>>;
using RunStats = Rpc<MsgType::kRunStats, ::skl::RunStats, RunId>;
using ServiceStats = Rpc<MsgType::kServiceStats, ::skl::ServiceStats>;
using SaveSnapshot =  // a path on the server
    Rpc<MsgType::kSaveSnapshot, NoFields, std::string>;
using LoadSnapshot =  // a path on the server
    Rpc<MsgType::kLoadSnapshot, NoFields, std::string>;
using Shutdown = Rpc<MsgType::kShutdown, NoFields>;
using SnapshotFetch = Rpc<MsgType::kSnapshotFetch, SnapshotFetchResult>;
using Subscribe =  // after_lsn, max_entries
    Rpc<MsgType::kSubscribe, LogBatch, uint64_t, uint64_t>;
using Metrics = Rpc<MsgType::kMetrics, std::string>;  // Prometheus text
using SlowQueries = Rpc<MsgType::kSlowQueries, std::vector<SlowQueryEntry>>;
using ApplySpecDelta =  // SerializeSpecDelta bytes; replies the new epoch
    Rpc<MsgType::kApplySpecDelta, uint64_t, std::vector<uint8_t>>;

/// Every request opcode. The server builds its dispatch table from this
/// list, so a request without a handler does not compile.
using All = TypeList<Ping, Reaches, ReachesBatch, DependsOn, DependsOnBatch,
                     ModuleDependsOnData, DataDependsOnModule, AddRun,
                     ImportRun, ExportRun, RemoveRun, ListRuns, RunStats,
                     ServiceStats, SaveSnapshot, LoadSnapshot, Shutdown,
                     SnapshotFetch, Subscribe, Metrics, SlowQueries,
                     ApplySpecDelta>;
}  // namespace rpc

/// True when every request row of kOpcodes has exactly one Rpc in the list
/// and every Rpc names a request row.
template <class... Rpcs>
constexpr bool MatchesRequestRows(TypeList<Rpcs...>) {
  size_t rows = 0;
  for (const OpcodeInfo& row : kOpcodes) {
    if (!row.is_request) continue;
    ++rows;
    if (((Rpcs::kType == row.type ? 1 : 0) + ...) != 1) return false;
  }
  return rows == sizeof...(Rpcs) &&
         (FindOpcode(static_cast<uint8_t>(Rpcs::kType))->is_request && ...);
}
static_assert(MatchesRequestRows(rpc::All{}),
              "rpc::All and the request rows of kOpcodes disagree");

/// The kOpcodes row of an Rpc.
template <class Rpc>
constexpr const OpcodeInfo& RowOf() {
  return *FindOpcode(static_cast<uint8_t>(Rpc::kType));
}

}  // namespace skl

#endif  // SKL_NET_MESSAGES_H_
