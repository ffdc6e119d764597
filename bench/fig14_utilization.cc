// Fig. 14: systolic-array utilization of convolution and FC layers per CNN
// and configuration, with unlimited DRAM bandwidth to isolate the effect of
// sub-batch size and GEMM shape. Also prints the Tab. 1 GEMM dimensions the
// mapping relies on. The 30-scenario grid is one engine sweep.
#include <cstdio>
#include <iostream>

#include "engine/engine.h"
#include "models/zoo.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  std::printf("=== Tab. 1: im2col GEMM dimensions per training phase ===\n");
  engine::ResultSink tab1("", {"phase", "Gh", "Gw", "K"});
  tab1.add_row({"Forward", "N x Ho x Wo", "Co", "Ci x R x S"});
  tab1.add_row({"Data Gradient", "N x Hi x Wi", "Ci", "Co x R x S"});
  tab1.add_row({"Weight Gradient", "Ci x R x S", "Co", "N x Ho x Wo"});
  tab1.print(std::cout);

  std::printf("\n=== Fig. 14: systolic array utilization (conv + FC, "
              "unlimited DRAM bandwidth) ===\n\n");

  const std::vector<sched::ExecConfig> configs = {
      sched::ExecConfig::kBaseline, sched::ExecConfig::kArchOpt,
      sched::ExecConfig::kMbsFs, sched::ExecConfig::kMbs1,
      sched::ExecConfig::kMbs2};

  sim::WaveCoreConfig hw;
  hw.unlimited_dram_bw = true;
  const auto grid = engine::scenario_grid(models::evaluated_network_names(),
                                          configs, {}, hw);
  const auto results = driver.run(grid);

  engine::ResultSink sink(
      "", {"network", "Baseline", "ArchOpt", "MBS-FS", "MBS1", "MBS2"});
  const std::size_t ncfg = configs.size();
  std::vector<double> sums(ncfg, 0.0);
  std::size_t count = 0;
  for (std::size_t i = 0; i < results.size(); i += ncfg) {
    std::vector<std::string> row{results[i].network->name};
    for (std::size_t ci = 0; ci < ncfg; ++ci) {
      const double u = results[i + ci].step.systolic_utilization;
      row.push_back(util::fmt(u, 3));
      sums[ci] += u;
    }
    sink.add_row(row);
    ++count;
  }
  std::vector<std::string> avg{"AVG"};
  for (double s : sums) avg.push_back(util::fmt(s / static_cast<double>(count), 3));
  sink.add_row(avg);
  sink.print(std::cout);
  sink.export_files("fig14_utilization");

  std::printf("\npaper's averages: Baseline 0.538, ArchOpt 0.815, MBS-FS "
              "0.667, MBS1/MBS2 0.786 (within 3%% of full mini-batch).\n");
  return 0;
}
