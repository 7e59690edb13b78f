// Replays a fuzz corpus through LLVMFuzzerTestOneInput without libFuzzer:
//
//   json_fuzz_replay CORPUS_DIR [MUTATIONS_PER_INPUT]
//
// Each file of the directory runs as it is, then as MUTATIONS_PER_INPUT
// (default 64; an eighth of that for files over 64 KiB) mutants drawn from a
// generator seeded by the file's name: flipped bytes, deleted and repeated
// slices, truncations and inserted JSON punctuation.  A broken property
// aborts the process.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

namespace {

void run(const std::string& input) {
  (void)LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(input.data()), input.size());
}

std::string mutate(std::string text, icsdiv::support::Rng& rng) {
  static constexpr std::string_view kPieces[] = {"[", "]", "{", "}", "\"", ",", ":", "\\",
                                                 "\\u", "-", ".", "e", "0", "null", "\n", "\x01"};
  const std::size_t edits = 1 + rng.index(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = text.empty() ? 0 : rng.index(text.size());
    switch (rng.index(5)) {
      case 0:
        if (!text.empty()) text[at] = static_cast<char>(text[at] ^ (1 << rng.index(8)));
        break;
      case 1: text.erase(at, 1 + rng.index(8)); break;
      case 2: text.insert(at, kPieces[rng.index(std::size(kPieces))]); break;
      case 3: text.resize(at); break;
      default: {
        const std::size_t length = std::min<std::size_t>(1 + rng.index(16), text.size() - at);
        text.insert(at, text.substr(at, length));
      }
    }
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: json_fuzz_replay CORPUS_DIR [MUTATIONS_PER_INPUT]\n");
    return 2;
  }
  const std::size_t mutations = argc == 3 ? std::strtoull(argv[2], nullptr, 10) : 64;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(argv[1])) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::size_t inputs = 0;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::string input((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    run(input);
    std::uint64_t seed = 1469598103934665603ull;
    for (const char c : file.filename().string()) {
      seed = (seed ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    icsdiv::support::Rng rng(seed);
    const std::size_t count = input.size() > (64u << 10) ? mutations / 8 : mutations;
    for (std::size_t m = 0; m < count; ++m) run(mutate(input, rng));
    inputs += 1 + count;
  }
  if (files.empty()) {
    std::fprintf(stderr, "json_fuzz_replay: no corpus files in %s\n", argv[1]);
    return 1;
  }
  std::printf("json_fuzz_replay: %zu files, %zu inputs, every property held\n", files.size(),
              inputs);
  return 0;
}
