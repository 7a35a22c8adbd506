#ifndef MMDB_MMDB_INTERNAL_H_
#define MMDB_MMDB_INTERNAL_H_

/// Engine internals behind the public umbrella (`mmdb.h`): the concrete
/// query processors and their support machinery, the edit-script
/// transforms, and the storage engine.
///
/// These headers are stable enough to build the library's own tools,
/// tests, and benchmarks, but they are not the supported application
/// surface — types here may change shape between releases without the
/// wire- and API-compatibility guarantees `mmdb.h` carries. Issue
/// queries through `QueryService` (local) or `net::Client` (remote)
/// instead of constructing processors directly; both execute the same
/// `QueryRequest` and return the same `QueryResult`.

// The query processors and the machinery they share: the scan kernel
// (RBM, BWM and parallel RBM are settings of it), the instantiate
// baseline, and the planner. Reach them through
// `QueryService` / `MultimediaDatabase::RunRange` — direct construction
// is deprecated as public API.
#include "core/bounds.h"
#include "core/executor.h"
#include "core/instantiate.h"
#include "core/plan.h"
#include "core/query_processor.h"
#include "core/rules.h"
#include "core/scan.h"

// Edit-script internals: binary serialization, delta encoding, and the
// script optimizer (the facade applies these on insert).
#include "editops/delta.h"
#include "editops/optimize.h"
#include "editops/serialize.h"

// Storage engine: page file, catalog, and object store (the facade owns
// these; embed directly only to build storage-level tooling).
#include "storage/catalog.h"
#include "storage/object_store.h"

#endif  // MMDB_MMDB_INTERNAL_H_
