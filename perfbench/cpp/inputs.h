#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SurfacePair {
  std::string left;
  std::string right;
  bool label = false;
};

// `count` distinct surface pairs from a data::CorpusStream seeded with
// `seed`: each record is paired with the last record of the same entity
// when there is one (a true match), otherwise with the record before it.
std::vector<SurfacePair> CorpusPairs(uint64_t seed, size_t count);

// The exact prompt the serve path renders for a product-domain request.
std::string ServePrompt(const SurfacePair& pair);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
