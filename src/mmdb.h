#ifndef MMDB_MMDB_H_
#define MMDB_MMDB_H_

/// Umbrella header for the mmdb library: a single include that exposes
/// the stable public API a downstream application needs — the database
/// facade, the query types, the serving layer (`QueryService`), and the
/// network client/server speaking the versioned wire protocol.
/// Individual headers remain includable for finer-grained dependencies.
///
/// ```
/// #include "mmdb.h"
/// auto db = mmdb::MultimediaDatabase::Open().value();
/// mmdb::QueryService service(db.get());
/// ```
///
/// Engine internals (the concrete query processors, the storage engine,
/// index structures, edit-script transforms) live behind
/// `mmdb_internal.h`, which code that genuinely embeds the engine must
/// include explicitly. Queries are issued through `QueryService` (or the
/// facade's `RunRange` / `RunConjunctive` / `RunSimilarity`);
/// constructing a processor directly is an internal affordance, not API.
/// (The one-release deprecated passthrough that pulled the internals in
/// by default, and its `MMDB_PUBLIC_API_ONLY` opt-out, are retired: this
/// umbrella is now always the lean surface.)

// Database facade, query types, and the serving layer.
#include "core/admission.h"
#include "core/cancel.h"
#include "core/collection.h"
#include "core/database.h"
#include "core/dominant.h"
#include "core/histogram.h"
#include "core/quantizer.h"
#include "core/query.h"
#include "core/query_parser.h"
#include "core/query_service.h"
#include "core/similarity.h"

// Remote access: versioned wire protocol, blocking client, TCP server.
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/status_codes.h"

// Fault-tolerant sharded corpus: partitioning, scatter-gather
// coordination with hedged retries and partial results, shard health.
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/health.h"
#include "shard/partition.h"
#include "shard/sharded_db.h"

// Image substrate and the editing-operation model (the public face:
// building images and edit scripts to store).
#include "editops/dsl.h"
#include "editops/edit_ops.h"
#include "image/color.h"
#include "image/draw.h"
#include "image/editor.h"
#include "image/geometry.h"
#include "image/image.h"
#include "image/ppm_io.h"

// Synthetic datasets, augmentation recipes, and workloads.
#include "datasets/augment.h"
#include "datasets/generators.h"
#include "datasets/recipes.h"

// Utilities.
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

#endif  // MMDB_MMDB_H_
