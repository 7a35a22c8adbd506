// Helmet (logo) retrieval with a persistent, disk-backed database: the
// paper's second dataset, exercised through the storage engine rather
// than in memory. Builds the database on first run, reopens it on later
// runs, and answers range + similarity queries.
//
// Run: ./build/examples/helmet_retrieval [db_path]

#include <cstdio>
#include <iostream>

#include "core/database.h"
#include "core/similarity.h"
#include "datasets/augment.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "helmets.mmdb";

  mmdb::DatabaseOptions options;
  options.path = path;
  options.pool_pages = 512;
  auto db_or = mmdb::MultimediaDatabase::Open(options);
  if (!db_or.ok()) {
    std::cerr << db_or.status().ToString() << "\n";
    return 1;
  }
  auto db = std::move(db_or).value();

  if (db->collection().BinaryCount() == 0) {
    std::cout << "building " << path << " ...\n";
    mmdb::datasets::DatasetSpec spec;
    spec.kind = mmdb::datasets::DatasetKind::kHelmets;
    spec.total_images = 300;
    spec.edited_fraction = 0.7;
    spec.seed = 1234;
    const auto stats =
        mmdb::datasets::BuildAugmentedDatabase(db.get(), spec);
    if (!stats.ok()) {
      std::cerr << stats.status().ToString() << "\n";
      return 1;
    }
    if (auto flushed = db->Flush(); !flushed.ok()) {
      std::cerr << flushed.ToString() << "\n";
      return 1;
    }
  } else {
    std::cout << "reopened " << path << "\n";
  }
  std::cout << "database holds " << db->collection().BinaryCount()
            << " binary + " << db->collection().EditedCount()
            << " edit-sequence images; BWM Main component covers "
            << db->collection().MainEditedCount() << " of them\n";

  // "Find helmets that are at least 20% navy" (a team-color search).
  mmdb::RangeQuery query;
  query.bin = db->BinOf(mmdb::colors::kNavy);
  query.min_fraction = 0.2;
  query.max_fraction = 1.0;

  mmdb::Stopwatch watch;
  const auto via_bwm = db->RunRange(query, mmdb::QueryMethod::kBwm).value();
  const auto bwm_us = watch.ElapsedMicros();

  std::cout << "\n\"at least 20% navy\":\n"
            << "  BWM over the whole augmented DB: " << via_bwm.ids.size()
            << " matches (binary + edited) in " << bwm_us << " us, "
            << via_bwm.stats.edited_images_skipped
            << " edited images accepted from Main clusters\n";

  // Query-by-example: nearest neighbors of a stored helmet.
  const mmdb::ObjectId probe = db->collection().binary_ids().front();
  const mmdb::SimilaritySearcher searcher(&db->collection(),
                                          &db->rule_engine());
  const auto knn =
      searcher.Knn(db->collection().FindBinary(probe)->histogram, 5);
  if (!knn.ok()) {
    std::cerr << knn.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\n5-NN of helmet #" << probe << ":";
  for (size_t i = 0; i < knn->size() && i < 5; ++i) {
    std::cout << "  #" << (*knn)[i].id << " (L1 >= "
              << (*knn)[i].distance_lo << ")";
  }
  std::cout << "\n(delete " << path << " to rebuild from scratch)\n";
  return 0;
}
