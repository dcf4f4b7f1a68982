// Out-of-core mining: the workflow the paper's Section 3 is really about.
//
// The table lives on disk (here: a generated PagedFile), is never loaded
// into memory, and is mined through the columnar batch core: a
// PagedFileBatchSource serves fixed-capacity column blocks, the
// MiningEngine plans almost equi-depth boundaries for EVERY numeric
// attribute in one sequential pass (each attribute's S sampled rows
// gathered at once, Algorithm 3.1 steps 1-3), then counts every
// (numeric, Boolean) attribute pair in ONE shared counting scan (step 4)
// before the O(M) optimizers run on the tiny bucket arrays (Section 4).

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "datagen/table_generator.h"
#include "rules/miner.h"
#include "storage/columnar_batch.h"
#include "storage/schema.h"

int main() {
  const std::string table_path = "/tmp/out_of_core_demo.optr";
  const int64_t kRows = 500000;

  // Generate a 36 MB disk table (8 numeric + 8 boolean attrs, 72 B/tuple)
  // with a planted rule on attribute num2 => bool1, streaming straight to
  // disk -- the relation is never materialized in memory.
  optrules::datagen::TableConfig config =
      optrules::datagen::PaperSection61Config(kRows);
  optrules::datagen::PlantedRule planted;
  planted.numeric_attr = 2;
  planted.boolean_attr = 1;
  planted.lo = 400000.0;
  planted.hi = 600000.0;
  planted.prob_inside = 0.75;
  planted.prob_outside = 0.1;
  config.planted_rules.push_back(planted);
  {
    optrules::Rng rng(3);
    const optrules::Status status =
        optrules::datagen::GenerateTableToFile(config, rng, table_path);
    if (!status.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  std::printf("disk table: %s (%lld tuples, 72 B each)\n", table_path.c_str(),
              static_cast<long long>(kRows));

  // Open the disk table as a batch source: column blocks of up to 4096
  // tuples, served straight from the columnar pages in the buffer pool.
  auto source_or = optrules::storage::PagedFileBatchSource::Open(table_path);
  if (!source_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 source_or.status().ToString().c_str());
    return 1;
  }
  optrules::storage::PagedFileBatchSource& source = *source_or.value();

  // One engine session mines ALL 64 attribute pairs: one planning pass
  // (every attribute's sampled rows gathered at once) + one counting scan.
  // Registering a generalized condition (Section 4.3) and an aggregate
  // target (Section 5) up front folds their channels into the SAME scan.
  optrules::rules::MinerOptions options;
  options.num_buckets = 1000;
  options.sample_per_bucket = 40;
  options.min_support = 0.10;
  options.min_confidence = 0.5;
  options.seed = 4;
  optrules::rules::MiningEngine engine(
      &source, optrules::storage::Schema::Synthetic(8, 8), options);
  if (!engine.RequestGeneralized({"bool0"}).ok() ||
      !engine.RequestAverageTarget("num3").ok()) {
    std::fprintf(stderr, "channel registration failed\n");
    return 1;
  }
  const std::vector<optrules::rules::MinedRule> rules =
      engine.MineAllPairs();
  std::printf("mined %zu rules (%d pairs) in %lld counting scan(s) + 1 "
              "planning pass;\ndata was scanned %lld times in total\n\n",
              rules.size(), 8 * 8,
              static_cast<long long>(engine.counting_scans()),
              static_cast<long long>(source.scans_started()));

  // The pair carrying the planted rule.
  for (const optrules::rules::MinedRule& rule : rules) {
    if (rule.numeric_attr != "num2" || rule.boolean_attr != "bool1") {
      continue;
    }
    std::printf("%s rule: %s\n",
                rule.kind == optrules::rules::RuleKind::kOptimizedConfidence
                    ? "optimized confidence"
                    : "optimized support   ",
                rule.ToString().c_str());
  }
  std::printf("\nplanted ground truth: num2 in [%.0f, %.0f], confidence "
              "75%%\n",
              planted.lo, planted.hi);

  // Generalized, aggregate, and threshold-sweep queries answer from the
  // SAME cached channels -- the table is never rescanned.
  const auto generalized =
      engine.MineGeneralized("num2", {"bool0"}, "bool1");
  if (generalized.ok() && !generalized.value().empty()) {
    std::printf("\ngeneralized (Sec 4.3): %s\n",
                generalized.value()[0].ToString().c_str());
  }
  const auto average = engine.MineMaximumAverageRange("num2", "num3", 0.10);
  if (average.ok()) {
    std::printf("max-average (Sec 5):   %s\n",
                average.value().ToString().c_str());
  }
  const optrules::rules::ThresholdSet sweep[] = {{0.05, 0.4}, {0.20, 0.7}};
  const size_t swept_rules = engine.MineAllPairs(sweep).size();
  std::printf("threshold sweep:       %zu rules at 2 more threshold sets\n",
              swept_rules);
  std::printf("counting scans for the whole session: %lld (data scanned "
              "%lld times incl. planning)\n",
              static_cast<long long>(engine.counting_scans()),
              static_cast<long long>(source.scans_started()));
  std::remove(table_path.c_str());
  return engine.counting_scans() == 1 ? 0 : 1;
}
