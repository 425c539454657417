// Table 1 — "Code Size (Number of Lines)".
//
// The paper compares the application source sizes of the PPM and MPI
// programs (CG 161 vs 733; matrix generation 424 vs 744; Barnes-Hut 499
// vs N/A) and attributes the difference to the explicit communication
// bundling/unbundling and synchronization code MPI needs. This binary
// counts the same quantity for this repository's implementations:
// non-blank, non-comment lines of each application's implementation
// sources (shared problem/workload code like the matrix generator or the
// octree is excluded — both versions use it equally, as both versions in
// the paper share the "computation code").
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

#ifndef PPM_SOURCE_DIR
#error "PPM_SOURCE_DIR must be defined"
#endif

/// Count non-blank, non-comment lines (// and /* */ style).
int count_loc(const std::vector<std::string>& files) {
  int lines = 0;
  for (const auto& rel : files) {
    std::ifstream in(std::string(PPM_SOURCE_DIR) + "/" + rel);
    if (!in) {
      std::fprintf(stderr, "table1: cannot open %s\n", rel.c_str());
      continue;
    }
    std::string line;
    bool in_block_comment = false;
    while (std::getline(in, line)) {
      // Strip leading whitespace.
      size_t i = line.find_first_not_of(" \t");
      if (i == std::string::npos) continue;
      std::string_view s(line.c_str() + i);
      if (in_block_comment) {
        const size_t close = s.find("*/");
        if (close == std::string_view::npos) continue;
        s.remove_prefix(close + 2);
        in_block_comment = false;
        if (s.find_first_not_of(" \t") == std::string_view::npos) continue;
      }
      if (s.starts_with("//")) continue;
      if (s.starts_with("/*")) {
        if (s.find("*/") == std::string_view::npos) in_block_comment = true;
        continue;
      }
      ++lines;
    }
  }
  return lines;
}

struct Row {
  const char* application;
  std::vector<std::string> ppm_files;
  std::vector<std::string> mpi_files;
};

const std::vector<Row>& rows() {
  // Implementation files only (headers are interface documentation); the
  // general-matrix CG entry point lives in cg_ppm_ext.cpp and is
  // deliberately not counted — the paper's row is the plain CG
  // application program.
  static const std::vector<Row> kRows = {
      {"Conjugate Gradient",
       {"src/apps/cg/cg_ppm.cpp"},
       {"src/apps/cg/cg_mpi.cpp"}},
      {"Matrix Generation",
       {"src/apps/collocation/matgen_ppm.cpp"},
       {"src/apps/collocation/matgen_mpi.cpp"}},
      {"Barnes Hut",
       {"src/apps/nbody/nbody_ppm.cpp"},
       {"src/apps/nbody/nbody_mpi.cpp"}},
  };
  return kRows;
}

void BM_Table1_CodeSize(benchmark::State& state) {
  const Row& row = rows()[static_cast<size_t>(state.range(0))];
  int ppm = 0, mpi = 0;
  for (auto _ : state) {
    ppm = count_loc(row.ppm_files);
    mpi = count_loc(row.mpi_files);
  }
  state.counters["ppm_lines"] = ppm;
  state.counters["mpi_lines"] = mpi;
  state.counters["mpi_over_ppm"] =
      ppm > 0 ? static_cast<double>(mpi) / ppm : 0.0;
  state.SetLabel(row.application);
}

}  // namespace

BENCHMARK(BM_Table1_CodeSize)->Arg(0)->Arg(1)->Arg(2)->Iterations(1);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Also print the table in the paper's layout.
  std::printf("\nTable 1. Code Size (Number of Lines)\n");
  std::printf("%-22s %12s %12s\n", "Application", "PPM Program",
              "MPI Program");
  for (const Row& row : rows()) {
    std::printf("%-22s %12d %12d\n", row.application,
                count_loc(row.ppm_files), count_loc(row.mpi_files));
  }
  benchmark::Shutdown();
  return 0;
}
