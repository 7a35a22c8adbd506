#ifndef MMDB_CORE_QUERY_PROCESSOR_H_
#define MMDB_CORE_QUERY_PROCESSOR_H_

#include "core/cancel.h"
#include "core/query.h"
#include "util/result.h"

namespace mmdb {

/// The one interface every access path implements. The scan kernel
/// (`ScanQueryProcessor`, core/scan.h) answers kRbm, kBwm, kBwmIndexed
/// and kParallelRbm; `InstantiationQueryProcessor` and
/// `PlannedQueryProcessor` answer kInstantiate and kPlanned. The facade
/// builds one per query with `MultimediaDatabase::MakeProcessor`, a
/// switch over the closed `QueryMethod` enum.
///
/// Contract shared by every implementation:
///  - no false negatives versus the instantiate baseline;
///  - kRbm, kBwm, kBwmIndexed, and kParallelRbm return identical result
///    sets (the paper's equivalence argument, enforced by the tests);
///  - `Run*` methods are const, so one processor is safe to use from the
///    thread that built it while other threads run their own processors
///    (the object store serializes its own I/O). A single processor
///    instance is NOT shareable across threads; build one per thread,
///    which is exactly what the facade and `QueryService` do.
/// Every processor additionally honors the limits in a `QueryContext`
/// (deadline, cancel tokens) by checking cooperatively at its natural
/// boundaries — per image scanned and per rule-walk operation — and
/// returns `DeadlineExceeded`/`Cancelled` with partial
/// progress recorded in `ctx.interrupt` when a limit trips. A
/// default-constructed context imposes no limits and takes the identical
/// code path.
class QueryProcessor {
 public:
  virtual ~QueryProcessor() = default;

  /// Answers a conjunction of range predicates under `ctx`'s limits.
  virtual Result<QueryResult> RunConjunctive(
      const ConjunctiveQuery& query, const QueryContext& ctx) const = 0;

  /// Answers one color range query: a one-conjunct conjunction.
  Result<QueryResult> RunRange(const RangeQuery& query,
                               const QueryContext& ctx) const {
    return RunConjunctive(ConjunctiveQuery{{query}}, ctx);
  }
};

}  // namespace mmdb

#endif  // MMDB_CORE_QUERY_PROCESSOR_H_
