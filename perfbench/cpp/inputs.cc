#include "inputs.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/matcher.h"
#include "data/corpus_stream.h"
#include "llm/infer_engine.h"
#include "llm/sim_llm.h"
#include "pbtool.h"
#include "util/json.h"

namespace perfbench {

namespace {

// TSV fields must not carry the separators.
std::string Clean(std::string text) {
  for (char& c : text) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

std::vector<SurfacePair> CorpusPairs(uint64_t seed, size_t count) {
  tailormatch::data::CorpusStreamConfig config;
  config.seed = seed;
  config.num_entities = count * 4 + 64;
  tailormatch::data::CorpusStream stream(config);

  std::vector<SurfacePair> pairs;
  pairs.reserve(count);
  std::unordered_map<uint64_t, std::string> last_of_entity;
  std::unordered_set<std::string> seen;
  std::string previous;
  tailormatch::data::Entity record;
  while (pairs.size() < count && stream.Next(&record)) {
    const std::string surface = Clean(record.surface);
    auto it = last_of_entity.find(record.entity_id);
    SurfacePair pair;
    if (it != last_of_entity.end()) {
      pair = {it->second, surface, true};
    } else if (!previous.empty()) {
      pair = {previous, surface, false};
    }
    if (!pair.left.empty() && pair.left != pair.right &&
        seen.insert(pair.left + '\x1f' + pair.right).second) {
      pairs.push_back(std::move(pair));
    }
    last_of_entity[record.entity_id] = surface;
    previous = surface;
  }
  return pairs;
}

std::string ServePrompt(const SurfacePair& pair) {
  return tailormatch::core::RenderPairPrompt(
      tailormatch::prompt::PromptTemplate::kDefault,
      tailormatch::core::MakeSurfacePair(pair.left, pair.right,
                                         tailormatch::data::Domain::kProduct));
}

// pbtool pairs --seed S --count N --out PATH [--model CKPT --sample-every K]
// Writes "label<TAB>left<TAB>right<TAB>reference" lines. On every K-th line
// the reference lists the offline SimLlm::PredictMatchProbability values in
// the server's wire format (json::Number): the planned forward, then the
// dynamic forward when it differs. Other lines hold "-".
int RunPairs(const Args& args) {
  const std::string out_path = args.Str("out", "");
  const size_t count = static_cast<size_t>(args.Int("count", 0));
  if (out_path.empty() || count == 0) {
    std::fprintf(stderr, "pbtool pairs needs --out and --count\n");
    return 2;
  }
  std::unique_ptr<tailormatch::llm::SimLlm> model;
  const std::string model_path = args.Str("model", "");
  if (!model_path.empty()) {
    auto loaded = tailormatch::llm::SimLlm::LoadCheckpoint(model_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", model_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    model = std::move(loaded).value();
  }
  const long long every = args.Int("sample-every", 0);
  const std::vector<SurfacePair> pairs =
      CorpusPairs(static_cast<uint64_t>(args.Int("seed", 1)), count);
  if (pairs.size() < count) {
    std::fprintf(stderr, "corpus yielded %zu of %zu pairs\n", pairs.size(),
                 count);
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::string reference = "-";
    if (model != nullptr && every > 0 && i % static_cast<size_t>(every) == 0) {
      const std::string prompt = ServePrompt(pairs[i]);
      model->PredictMatchProbability(prompt);  // captures the plan if new
      reference = tailormatch::json::Number(
          model->PredictMatchProbability(prompt));
      std::string dynamic;
      {
        tailormatch::llm::InferExecutorModeScope scope(
            tailormatch::llm::InferExecutorMode::kDynamic);
        dynamic = tailormatch::json::Number(
            model->PredictMatchProbability(prompt));
      }
      if (dynamic != reference) reference += "," + dynamic;
    }
    out << (pairs[i].label ? 1 : 0) << '\t' << pairs[i].left << '\t'
        << pairs[i].right << '\t' << reference << '\n';
  }
  return out.good() ? 0 : 1;
}

}  // namespace perfbench
