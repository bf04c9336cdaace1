// Seed-corpus replay driver: links every registered fuzz entrypoint into
// one binary and drives each over its checked-in corpus directory, then
// over `--mutants` deterministic FaultPlan corruptions of every corpus
// file. This is the `fuzz_corpus_replay` ctest target, so the same
// entrypoints that libFuzzer explores under -DSTCOMP_FUZZ=ON also run on
// hostile bytes in plain CI and under ASan/UBSan — reproducibly, from one
// seed.
//
// Usage: fuzz_replay --corpus=<dir> [--mutants=N] [--seed=S]
// Fails (exit 1) if any registered target has no corpus file: every
// entrypoint must ship seeds. Fails too on a corpus directory that names
// no registered target: the libFuzzer legs of scripts/check.sh and CI
// fuzz one target per directory.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_registry.h"
#include "stcomp/testing/fault_plan.h"

namespace {

namespace fs = std::filesystem;

// FNV-1a fold so per-file mutant streams are unrelated across files and
// targets but stable across runs and platforms.
uint64_t MixSeed(uint64_t seed, const std::string& target,
                 const std::string& file, uint64_t k) {
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (char c : target + "/" + file) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h ^ (k * 0x9e3779b97f4a7c15ull);
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void RunInput(stcomp::fuzz::FuzzEntry entry, const std::string& bytes) {
  entry(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_root;
  uint64_t mutants = 32;
  uint64_t seed = 20260805;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--corpus=", 0) == 0) {
      corpus_root = arg.substr(9);
    } else if (arg.rfind("--mutants=", 0) == 0) {
      mutants = std::stoull(arg.substr(10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  if (corpus_root.empty()) {
    std::fprintf(stderr,
                 "usage: fuzz_replay --corpus=<dir> [--mutants=N] [--seed=S]\n");
    return 1;
  }
  const auto& targets = stcomp::fuzz::AllTargets();
  if (targets.empty()) {
    std::fprintf(stderr, "no fuzz targets registered\n");
    return 1;
  }
  bool ok = true;
  std::error_code error;
  for (const auto& entry : fs::directory_iterator(corpus_root, error)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() &&
        std::none_of(targets.begin(), targets.end(),
                     [&name](const stcomp::fuzz::FuzzTarget& target) {
                       return name == target.name;
                     })) {
      std::fprintf(stderr, "FAIL %s: corpus directory without a target\n",
                   name.c_str());
      ok = false;
    }
  }
  size_t total_inputs = 0;
  for (const stcomp::fuzz::FuzzTarget& target : targets) {
    const fs::path dir = fs::path(corpus_root) / target.name;
    std::vector<fs::path> files;
    if (fs::is_directory(dir)) {
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file()) {
          files.push_back(entry.path());
        }
      }
    }
    // Deterministic order regardless of directory enumeration.
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "FAIL %s: no corpus files under %s\n", target.name,
                   dir.string().c_str());
      ok = false;
      continue;
    }
    size_t inputs = 0;
    for (const fs::path& file : files) {
      const std::string bytes = ReadFileBytes(file);
      RunInput(target.entry, bytes);
      ++inputs;
      for (uint64_t k = 0; k < mutants; ++k) {
        stcomp::testing::FaultPlan plan(
            MixSeed(seed, target.name, file.filename().string(), k));
        RunInput(target.entry, plan.CorruptBytes(bytes));
        ++inputs;
      }
    }
    std::printf("ok   %-14s %3zu corpus files, %5zu inputs\n", target.name,
                files.size(), inputs);
    total_inputs += inputs;
  }
  if (!ok) {
    return 1;
  }
  std::printf("replayed %zu targets, %zu inputs, seed=%llu\n", targets.size(),
              total_inputs, static_cast<unsigned long long>(seed));
  return 0;
}
