// Query service: the serving layer over the augmented database. Builds a
// flag collection, then answers a whole batch of range, conjunctive
// (hard-wired and planned), and top-k similarity queries
// concurrently on the service's persistent worker pool — with the
// per-query answers identical (including order) to serial facade
// dispatch — and prints the service's counter snapshot.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/query_service

#include <iostream>
#include <vector>

#include "core/query_service.h"
#include "datasets/augment.h"

int main() {
  // 1. A flag collection, most of it stored as edit sequences.
  auto db_or = mmdb::MultimediaDatabase::Open();
  if (!db_or.ok()) {
    std::cerr << db_or.status().ToString() << "\n";
    return 1;
  }
  auto db = std::move(db_or).value();
  mmdb::datasets::DatasetSpec spec;
  spec.total_images = 200;
  spec.edited_fraction = 0.8;
  spec.seed = 7;
  auto built = mmdb::datasets::BuildAugmentedDatabase(db.get(), spec);
  if (!built.ok()) {
    std::cerr << built.status().ToString() << "\n";
    return 1;
  }
  std::cout << "collection: " << built->binary_ids.size()
            << " conventional images, " << built->edited_ids.size()
            << " stored as edit sequences\n";

  // 2. A batch mixing access paths and query shapes. Independent reads
  //    like these are exactly what the pool runs concurrently; the
  //    database just must not be mutated while a batch is in flight.
  mmdb::Rng rng(11);
  const auto windows = mmdb::datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), mmdb::datasets::FlagPalette(), 8,
      rng);
  std::vector<mmdb::QueryRequest> batch;
  for (const auto& window : windows) {
    batch.push_back(
        mmdb::QueryRequest::Range(window, mmdb::QueryMethod::kBwm));
    batch.push_back(
        mmdb::QueryRequest::Range(window, mmdb::QueryMethod::kParallelRbm));
  }
  mmdb::ConjunctiveQuery conjunctive;
  conjunctive.conjuncts.push_back(windows[0]);
  conjunctive.conjuncts.push_back(windows[1]);
  batch.push_back(mmdb::QueryRequest::Conjunctive(
      conjunctive, mmdb::QueryMethod::kBwmIndexed));
  // kPlanned orders the conjuncts most-selective-first and runs them as
  // one conjunction through BWM's scan, or RBM's when no edited image is
  // in a Main cluster (docs/QUERYING.md §2).
  batch.push_back(mmdb::QueryRequest::Conjunctive(
      conjunctive, mmdb::QueryMethod::kPlanned));
  // Top-k nearest-histogram search rides the same batch: exact distances
  // for conventional images, provable [lo, hi] intervals for edited ones.
  mmdb::SimilarityQuery nearest;
  nearest.histogram = mmdb::ColorHistogram(db->quantizer().BinCount());
  nearest.histogram.Add(db->BinOf(mmdb::Rgb(0, 0, 255)), 1);
  nearest.k = 5;
  batch.push_back(mmdb::QueryRequest::Similarity(nearest));

  // 3. Execute the whole batch across a 4-thread service.
  mmdb::QueryService service(db.get(), mmdb::QueryServiceOptions{4, {}});
  const auto results = service.ExecuteBatch(batch);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::cerr << "query " << i << ": "
                << results[i].status().ToString() << "\n";
      return 1;
    }
  }
  std::cout << "executed " << results.size() << " queries on "
            << service.threads() << " threads; first answer has "
            << results.front()->ids.size() << " matches\n";
  const auto& knn = *results.back();
  std::cout << "nearest-to-blue candidates (k=5, no false negatives): "
            << knn.matches.size() << "; closest id " << knn.matches[0].id
            << " at d=[" << knn.matches[0].distance_lo << ", "
            << knn.matches[0].distance_hi << "]\n\n";

  // 4. Per-query work rolls up into the service counters.
  service.Snapshot().PrintTo(std::cout);
  return 0;
}
