// Reproduces paper Table XI (classification) and prints the dataset
// statistics of Table X: ten UEA-like subsets, top-1 accuracy, plus the
// paper's Mean Rank summary row.
//
// Models: MSD-Mixer (classification head), 1-NN DTW-D (the classical
// baseline), and a flatten-MLP classifier.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/dtw.h"
#include "baselines/mlp_classifier.h"
#include "bench_util.h"
#include "datagen/classification_gen.h"
#include "metrics/metrics.h"

namespace msd {
namespace {

using bench::BenchTrainer;
using bench::MixerConfig;

struct RunResult {
  std::string model;
  double accuracy;
};

std::vector<RunResult> RunAllModels(const ClassificationSubset& subset,
                                    const ClassificationData& data) {
  ClassificationExperimentConfig config;
  config.trainer = BenchTrainer(/*epochs=*/30, /*max_batches=*/0, 2e-3f);
  config.trainer.batch_size = 16;
  config.trainer.weight_decay = 1e-3f;

  std::vector<RunResult> results;
  {
    Rng rng(1);
    // Patch ladder from the series length: sub-series at several scales.
    // Narrow representation + heavy head dropout: the per-layer flatten
    // heads overfit badly in this low-data regime otherwise.
    MsdMixerConfig mc = MixerConfig(TaskType::kClassification, subset.channels,
                                    subset.length, 1, subset.length / 4,
                                    subset.classes);
    mc.model_dim = 8;
    mc.drop_path = 0.1f;
    mc.head_dropout = 0.7f;
    MsdMixer mixer(mc, rng);
    ResidualLossOptions ro;
    ro.max_lag = 16;
    MsdMixerTaskModel model(&mixer, 0.05f, ro);
    results.push_back(
        {"MSD-Mixer", RunClassificationExperiment(model, data, config)});
  }
  {
    DtwKnnClassifier knn(0.1);
    knn.Fit(data.train_x, data.train_y);
    const std::vector<int64_t> pred = knn.PredictBatch(data.test_x);
    results.push_back({"DTW-1NN", Accuracy(pred, data.test_y)});
  }
  {
    Rng rng(2);
    MlpClassifier mlp(subset.channels, subset.length, subset.classes, rng);
    ModuleTaskModel model(&mlp);
    results.push_back(
        {"Flat-MLP", RunClassificationExperiment(model, data, config)});
  }
  return results;
}

}  // namespace
}  // namespace msd

int main(int argc, char** argv) {
  msd::bench::InitThreads(argc, argv);
  using namespace msd;
  const auto subsets = DefaultClassificationSubsets();

  std::printf("== Table X analogue: classification datasets ==\n");
  bench::TablePrinter stats({"Subset", "Dim", "Length", "Classes", "Train",
                             "Test", "Paper dim/len"},
                            {7, 4, 6, 7, 5, 5, 13});
  stats.PrintHeader();
  const std::map<std::string, std::string> paper_profile = {
      {"AWR", "9 / 144"},  {"AF", "2 / 640"},    {"CT", "3 / 182"},
      {"CR", "6 / 1197"},  {"FD", "144 / 62"},   {"FM", "28 / 50"},
      {"MI", "64 / 3000"}, {"SCP1", "6 / 896"},  {"SCP2", "7 / 1152"},
      {"UWGL", "3 / 315"}};
  for (const auto& s : subsets) {
    stats.PrintRow({s.name, std::to_string(s.channels),
                    std::to_string(s.length), std::to_string(s.classes),
                    std::to_string(s.train_size), std::to_string(s.test_size),
                    paper_profile.at(s.name)});
  }
  stats.PrintRule();

  std::printf("\n== Table XI analogue: classification accuracy ==\n\n");
  const std::vector<std::string> models = {"MSD-Mixer", "DTW-1NN", "Flat-MLP"};
  bench::TablePrinter table({"Subset", "MSD-Mixer", "DTW-1NN", "Flat-MLP"},
                            {7, 10, 10, 10});
  table.PrintHeader();

  std::vector<std::vector<double>> accuracy_rows;
  std::map<std::string, double> acc_sum;
  std::map<std::string, int> first_counts;
  for (const auto& subset : subsets) {
    const ClassificationData data =
        GenerateClassificationData(subset, /*seed=*/9);
    const auto results = RunAllModels(subset, data);
    std::vector<double> values;
    for (const auto& r : results) values.push_back(r.accuracy);
    accuracy_rows.push_back(values);
    const auto cells = bench::MarkBest(values, 3, /*lower_is_better=*/false);
    std::vector<std::string> row = {subset.name};
    row.insert(row.end(), cells.begin(), cells.end());
    table.PrintRow(row);
    std::fflush(stdout);
    // Every model tied for the row best takes a first place, the same
    // rule MarkBest uses for the row's stars.
    const double best = *std::max_element(values.begin(), values.end());
    for (const auto& r : results) {
      acc_sum[r.model] += r.accuracy;
      if (r.accuracy == best) first_counts[r.model]++;
    }
  }
  table.PrintRule();

  const std::vector<double> ranks = MeanRanks(accuracy_rows);
  std::vector<std::string> avg_row = {"Avg.Acc"};
  std::vector<std::string> rank_row = {"MeanRank"};
  for (size_t m = 0; m < models.size(); ++m) {
    avg_row.push_back(bench::Fmt(acc_sum[models[m]] / subsets.size(), 3));
    rank_row.push_back(bench::Fmt(ranks[m], 1));
  }
  table.PrintRow(avg_row);
  table.PrintRow(rank_row);
  table.PrintRule();

  std::printf("\nAccuracy 1st-place counts:\n");
  for (const auto& m : models) {
    std::printf("  %-10s %d\n", m.c_str(), first_counts[m]);
  }
  std::printf(
      "\nPaper shape check (Table XI): MSD-Mixer best mean rank (2.8) but\n"
      "task-specific TARNet has the higher average accuracy; classical\n"
      "baselines win subsets outright. Expected here: the families split\n"
      "the subsets — MSD-Mixer clearly ahead of the classical DTW-1NN on\n"
      "average, with the small task-specific flatten-MLP the strongest\n"
      "single competitor (the TARNet role).\n");
  return bench::ExportTelemetry(argc, argv) ? 0 : 1;
}
