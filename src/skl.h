// Umbrella header: the public surface of the SKL library in one include.
//
//   #include "src/skl.h"
//
//   skl::Specification spec = ...;                       // SpecificationBuilder
//   auto svc = skl::ProvenanceService::Create(
//       std::move(spec), skl::SpecSchemeKind::kTcm);     // skeleton labeled once
//   skl::RunId id = *svc->AddRun(run);                   // many runs, amortized
//   bool dep = *svc->Reaches(id, v, w);                  // O(1) per query
//
// ProvenanceService is the entry point (a live run is a RunSession). The
// deprecated single-run facades SkeletonLabeler and OnlineLabeler are not
// part of this surface; include src/core/skeleton_labeler.h or
// online_labeler.h directly. For serving queries to other processes, wrap
// the service in a ProvenanceServer and connect with ProvenanceClient
// (src/net/, docs/NETWORK.md) — the client mirrors the service API. For
// durability and horizontal read scaling, attach an OpLog and point
// ReadReplica / FleetClient at the server (src/replication/,
// docs/REPLICATION.md).
#ifndef SKL_SKL_H_
#define SKL_SKL_H_

#include "src/common/status.h"
#include "src/core/data_provenance.h"
#include "src/core/execution_plan.h"
#include "src/core/plan_builder.h"
#include "src/core/provenance_service.h"
#include "src/core/provenance_store.h"
#include "src/core/run_labeling.h"
#include "src/graph/digraph.h"
#include "src/io/snapshot.h"
#include "src/io/workflow_xml.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/replication/fleet_client.h"
#include "src/replication/oplog.h"
#include "src/replication/replicator.h"
#include "src/speclabel/scheme.h"
#include "src/workflow/run.h"
#include "src/workflow/spec_delta.h"
#include "src/workflow/specification.h"
#include "src/workflow/validation.h"

#endif  // SKL_SKL_H_
