// pbtool probe: module calls for the traced per-layer run.
//
//   pbtool probe --model CKPT --seed S --corpus-seed C
//                --entities N --budget B --scale X --rate R --requests Q
//                --threads T --spans SPANS.json --out LAYERS.json
//
// Measures the per-layer figures the program does not export itself (the
// traced run takes the rest from the CLI's --metrics-out and --json-out):
// single-query and per-record timings, recall without LSH, cluster sizes,
// the second evaluator, kernels, forwards, and the serve path in-process.
// Every call into a module runs under a span; spans are kept in memory and
// written once at the end. Sizes come from the arguments, so the same
// values drive the CLI commands and the probe.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cascade/ann_index.h"
#include "cascade/cheap_scorer.h"
#include "cascade/dedup.h"
#include "cascade/union_find.h"
#include "core/batch_matcher.h"
#include "core/matcher.h"
#include "data/benchmark_factory.h"
#include "data/corpus_stream.h"
#include "eval/evaluator.h"
#include "inputs.h"
#include "llm/infer_engine.h"
#include "llm/sim_llm.h"
#include "nn/kernels.h"
#include "pbtool.h"
#include "serve/jsonl_server.h"
#include "serve/micro_batcher.h"
#include "serve/model_registry.h"
#include "serve/result_cache.h"
#include "spans.h"
#include "text/tfidf.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

namespace tm = tailormatch;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

// Repeats `fn` until at least `min_seconds` have passed; seconds per call.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_seconds = 0.05) {
  fn();  // warm caches and lazily built state
  long long calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = SecondsSince(start);
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(calls);
}

class Probe {
 public:
  explicit Probe(const Args& args)
      : checkpoint_(args.Str("model", "")),
        seed_(static_cast<uint64_t>(args.Int("seed", 1))),
        corpus_seed_(static_cast<uint64_t>(args.Int("corpus-seed", 1))),
        entities_(static_cast<size_t>(args.Int("entities", 0))),
        budget_(args.Double("budget", 0.0)),
        scale_(args.Double("scale", 0.0)),
        rate_(args.Double("rate", 0.0)),
        requests_(static_cast<size_t>(args.Int("requests", 0))),
        threads_(static_cast<int>(args.Int("threads", 4))) {}

  int Run(const std::string& spans_path, const std::string& out_path);

 private:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  void Evaluators();
  void Cascade();
  void TextAndPrompts();
  void Kernels();
  void Llm();
  void Serving();

  std::string checkpoint_;
  uint64_t seed_;
  uint64_t corpus_seed_;  // the dedup corpus, as `dedup --seed` takes it
  size_t entities_;       // dedup corpus size
  double budget_;         // dedup LLM budget per entity
  double scale_;          // TM_SCALE of the WDC benchmark
  double rate_;           // serve-unique reference rate, requests/s
  size_t requests_;       // MicroBatcher requests at that rate
  int threads_;
  SpanLog log_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> notes_;
  std::unique_ptr<tm::llm::SimLlm> model_;
  std::vector<SurfacePair> pairs_;
  std::vector<std::string> prompts_;
  int prompt_length_ = 0;  // median clipped token count of prompts_
};

// ---- eval: the evaluator `tailormatch finetune` does not use -------------

// The CLI evaluates through core::BatchEvaluate and exports its rate; this
// times eval::EvaluateModel, the other evaluator, on the same test set.
void Probe::Evaluators() {
  Span root(&log_, "eval");
  tm::data::Benchmark benchmark;
  {
    Span span(&log_, "data.BuildBenchmark");
    benchmark =
        tm::data::BuildBenchmark(tm::data::BenchmarkId::kWdcSmall, scale_);
  }
  Span span(&log_, "eval.EvaluateModel");
  const Clock::time_point start = Clock::now();
  tm::eval::EvaluateModel(*model_, benchmark.test, tm::eval::EvalOptions());
  Set("eval.evaluate_model_pairs_per_s",
      benchmark.test.size() / SecondsSince(start), "1/s");
}

// ---- dedup: what `tailormatch dedup` does not export ------------------

struct Candidate {
  int a = 0, b = 0;
  float cosine = 0.0f;
  bool operator<(const Candidate& o) const {
    return a != o.a ? a < o.a : b < o.b;
  }
  bool operator==(const Candidate& o) const { return a == o.a && b == o.b; }
};

std::vector<Candidate> QueryAll(const tm::cascade::CascadeIndex& index,
                                size_t n, int k, int threads,
                                std::vector<double>* query_us) {
  std::vector<std::vector<Candidate>> per_doc(n);
  if (query_us != nullptr) query_us->assign(n, 0.0);
  tm::ThreadPool::ParallelFor(
      n, static_cast<size_t>(threads),
      [&](size_t i) {
        const Clock::time_point start = Clock::now();
        for (const auto& neighbor : index.Query(static_cast<int>(i), k)) {
          per_doc[i].push_back({std::min(static_cast<int>(i), neighbor.doc),
                                std::max(static_cast<int>(i), neighbor.doc),
                                static_cast<float>(neighbor.score)});
        }
        if (query_us != nullptr) (*query_us)[i] = 1e6 * SecondsSince(start);
      },
      /*grain=*/64);
  std::vector<Candidate> all;
  for (auto& list : per_doc) all.insert(all.end(), list.begin(), list.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

// The CLI's own run gives every stage time and the candidate, recall and
// budget counts. This rebuilds the same index through the library's calls
// to time single queries and whole-corpus embedding, to measure recall
// without the LSH tables, and to find the cluster sizes. The traced run
// checks its pair F1 and recall against the CLI's, so the cluster sizes
// come from the same decisions.
void Probe::Cascade() {
  const tm::cascade::DedupOptions defaults;  // as the CLI uses them
  const size_t n = entities_;
  const int k = defaults.k;
  std::vector<std::string> surfaces;
  std::vector<uint64_t> ids;
  std::vector<tm::text::SparseVector> vectors(n);
  std::vector<tm::cascade::DocProfile> profiles(n);
  tm::cascade::CascadeIndexOptions index_options = defaults.index;
  index_options.seed = corpus_seed_;
  tm::cascade::CascadeIndex index(index_options);
  std::vector<Candidate> candidates;
  uint64_t true_pairs = 0;
  Span root(&log_, "dedup");
  {
    Span span(&log_, "data.CorpusStream");
    tm::data::CorpusStreamConfig config;
    config.num_entities = n;
    config.seed = corpus_seed_;
    tm::data::CorpusStream stream(config);
    std::vector<tm::data::Entity> chunk;
    while (stream.NextChunk(&chunk, defaults.chunk_size) > 0) {
      for (tm::data::Entity& entity : chunk) {
        surfaces.push_back(std::move(entity.surface));
        ids.push_back(entity.entity_id);
      }
      chunk.clear();
    }
    true_pairs = stream.true_pairs();
  }
  tm::text::TfidfEmbedder embedder;
  {
    Span span(&log_, "text.TfidfEmbedder.Fit");
    const Clock::time_point start = Clock::now();
    embedder.Fit(surfaces);
    Set("text.tfidf_fit_ms", 1e3 * SecondsSince(start), "ms");
  }
  {
    Span span(&log_, "text.TfidfEmbedder.Embed");
    const Clock::time_point start = Clock::now();
    tm::ThreadPool::ParallelFor(
        n, static_cast<size_t>(threads_),
        [&](size_t i) { vectors[i] = embedder.Embed(surfaces[i]); }, 128);
    Set("text.tfidf_embed_us", 1e6 * SecondsSince(start) * threads_ / n,
        "us");
  }
  {
    Span span(&log_, "cascade.MakeDocProfile");
    tm::ThreadPool::ParallelFor(
        n, static_cast<size_t>(threads_),
        [&](size_t i) {
          profiles[i] = tm::cascade::MakeDocProfile(surfaces[i]);
        },
        128);
  }
  {
    Span span(&log_, "cascade.CascadeIndex.Build");
    index.Build(&vectors, threads_);
  }
  {
    Span span(&log_, "cascade.CascadeIndex.Query");
    std::vector<double> query_us;
    candidates = QueryAll(index, n, k, threads_, &query_us);
    Set("cascade.query_us.p50", Percentile(query_us, 50), "us");
    Set("cascade.query_us.p99", Percentile(query_us, 99), "us");
  }
  auto recall_of = [&](const std::vector<Candidate>& found) {
    uint64_t hits = 0;
    for (const Candidate& c : found) hits += ids[c.a] == ids[c.b];
    return true_pairs == 0 ? 1.0 : static_cast<double>(hits) / true_pairs;
  };
  const double recall = recall_of(candidates);
  notes_["dedup_blocking_recall"] = recall;

  tm::cascade::CheapScorer scorer;
  {
    Span span(&log_, "cascade.CheapScorer.Fit");
    const size_t stride = std::max<size_t>(
        1, candidates.size() / defaults.calibration_pairs);
    std::vector<tm::cascade::CheapScorer::TrainPair> sample;
    for (size_t i = 0; i < candidates.size(); i += stride) {
      const Candidate& c = candidates[i];
      sample.push_back({tm::cascade::ComputeFeatures(c.cosine, profiles[c.a],
                                                     profiles[c.b]),
                        ids[c.a] == ids[c.b]});
    }
    scorer.Fit(sample);
  }
  std::vector<double> scores(candidates.size());
  {
    Span span(&log_, "cascade.CheapScorer.Score");
    tm::ThreadPool::ParallelFor(
        candidates.size(), static_cast<size_t>(threads_),
        [&](size_t i) {
          const Candidate& c = candidates[i];
          scores[i] = scorer.Score(tm::cascade::ComputeFeatures(
              c.cosine, profiles[c.a], profiles[c.b]));
        },
        256);
  }
  std::vector<char> decisions(candidates.size(), 0);
  std::vector<size_t> uncertain;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] >= defaults.band_high) {
      decisions[i] = 1;
    } else if (scores[i] > defaults.band_low) {
      uncertain.push_back(i);
    }
  }
  std::sort(uncertain.begin(), uncertain.end(), [&](size_t x, size_t y) {
    const double dx = std::abs(scores[x] - 0.5);
    const double dy = std::abs(scores[y] - 0.5);
    return dx != dy ? dx < dy : candidates[x] < candidates[y];
  });
  const size_t escalated = std::min(
      uncertain.size(), static_cast<size_t>(budget_ * static_cast<double>(n)));
  for (size_t begin = 0; begin < escalated; begin += defaults.llm_batch_size) {
    const size_t end = std::min(escalated, begin + defaults.llm_batch_size);
    std::vector<std::string> prompts;
    {
      Span render(&log_, "core.RenderPairPrompt");
      for (size_t i = begin; i < end; ++i) {
        const Candidate& c = candidates[uncertain[i]];
        prompts.push_back(ServePrompt({surfaces[c.a], surfaces[c.b], false}));
      }
    }
    Span predict(&log_, "llm.PredictMatchProbabilities");
    const std::vector<double> probabilities =
        model_->PredictMatchProbabilities(prompts, threads_);
    for (size_t i = begin; i < end; ++i) {
      decisions[uncertain[i]] =
          tm::core::DecisionForProbability(probabilities[i - begin]).is_match;
    }
  }
  for (size_t i = escalated; i < uncertain.size(); ++i) {
    decisions[uncertain[i]] = scores[uncertain[i]] >= 0.5;
  }
  {
    Span span(&log_, "cascade.UnionFind");
    tm::cascade::UnionFind clusters(n);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (decisions[i]) clusters.Union(candidates[i].a, candidates[i].b);
    }
    size_t largest = 0;
    uint64_t clustered = 0, correct = 0;
    for (const std::vector<int>& members : clusters.Clusters(2)) {
      largest = std::max(largest, members.size());
      clustered += members.size() * (members.size() - 1) / 2;
      std::unordered_map<uint64_t, uint64_t> counts;
      for (int member : members) ++counts[ids[member]];
      for (const auto& [id, count] : counts) correct += count * (count - 1) / 2;
    }
    Set("cascade.largest_cluster", largest, "count");
    Set("cascade.giant_component_share", static_cast<double>(largest) / n,
        "ratio");
    const double p = clustered == 0 ? 1.0 : double(correct) / clustered;
    const double r = true_pairs == 0 ? 1.0 : double(correct) / true_pairs;
    notes_["dedup_pair_f1"] = p + r > 0 ? 2 * p * r / (p + r) : 0.0;
  }
  // Recall without the LSH layer, on the same vectors (ROADMAP item 1).
  Span lsh_off(&log_, "cascade.CascadeIndex.lsh_off");
  index_options.lsh_tables = 0;
  tm::cascade::CascadeIndex lexical(index_options);
  lexical.Build(&vectors, threads_);
  Set("cascade.lsh_recall_gain",
      recall - recall_of(QueryAll(lexical, n, k, threads_, nullptr)), "ratio");
}

// ---- text / prompt: the serve path's per-request work --------------------

void Probe::TextAndPrompts() {
  Span root(&log_, "prompts");
  double render_s;
  {
    Span span(&log_, "core.RenderPairPrompt");
    size_t i = 0;
    render_s = TimePerCall([&] {
      ServePrompt(pairs_[i++ % pairs_.size()]);
    });
  }
  Set("core.render_prompt_us", 1e6 * render_s, "us");
  const int max_seq = model_->config().max_seq;
  {
    Span span(&log_, "text.Tokenizer.EncodeForModel");
    size_t i = 0;
    Set("text.tokenize_us", 1e6 * TimePerCall([&] {
          model_->tokenizer().EncodeForModel(prompts_[i++ % prompts_.size()],
                                             max_seq);
        }),
        "us");
  }
}

// ---- nn: kernels at the llama8b-sim forward's shapes ---------------------

void Probe::Kernels() {
  Span root(&log_, "nn.kernels");
  namespace kn = tm::nn::kernels;
  const int d = model_->config().dim;
  const int heads = model_->config().num_heads;
  const int layers = model_->config().num_layers;
  const int ffn = 4 * d;
  const int seq = prompt_length_;
  tm::Rng rng(seed_);
  auto random = [&rng](size_t size) {
    std::vector<float> v(size);
    for (float& x : v) x = rng.NextFloat() - 0.5f;
    return v;
  };
  // Each kernel call is timed under its own span.
  auto time_ns = [this](const char* span, const std::string& metric,
                        auto&& call) {
    Span timed(&log_, span);
    Set(metric, 1e9 * TimePerCall(call), "ns");
  };
  auto time_gflops = [this](const char* span, const std::string& metric,
                            double flops, auto&& call) {
    Span timed(&log_, span);
    Set(metric, flops / TimePerCall(call) / 1e9, "GFLOP/s");
  };
  const std::vector<std::pair<std::string, int>> shapes = {{"seq", seq},
                                                           {"b8", 8 * seq}};
  for (const auto& [suffix, rows] : shapes) {
    // FFN-up shape: (rows x dim) . (dim x 4 dim).
    const int m = rows, n = ffn, k = d;
    const double flops = 2.0 * m * n * k;
    std::vector<float> a = random(size_t(m) * k), b = random(size_t(k) * n),
                       c(size_t(m) * n), at = random(size_t(k) * m),
                       bt = random(size_t(n) * k);
    time_gflops("nn.GemmNN", "nn.gemm_nn_gflops." + suffix, flops, [&] {
      kn::GemmNN(m, n, k, a.data(), b.data(), c.data());
    });
    time_gflops("nn.GemmNT", "nn.gemm_nt_gflops." + suffix, flops, [&] {
      kn::GemmNT(m, n, k, a.data(), bt.data(), c.data());
    });
    time_gflops("nn.GemmTN", "nn.gemm_tn_gflops." + suffix, flops, [&] {
      kn::GemmTN(m, n, k, at.data(), b.data(), c.data());
    });
    // Attention rows stay per sequence; batch-stacking multiplies them.
    const int attn_rows = heads * rows;
    std::vector<float> scores = random(size_t(attn_rows) * seq),
                       probs(scores.size()), grad = random(scores.size()),
                       dscores(scores.size());
    time_ns("nn.SoftmaxRows", "nn.softmax_rows_ns." + suffix, [&] {
      kn::SoftmaxRows(attn_rows, seq, scores.data(), probs.data());
    });
    std::vector<float> x = random(size_t(rows) * d), gain = random(d),
                       bias = random(d), y(x.size()), stats(size_t(rows) * 2),
                       dy = random(x.size()), dx(x.size()), dgain(d), dbias(d);
    time_ns("nn.LayerNormRows", "nn.layernorm_rows_ns." + suffix, [&] {
      kn::LayerNormRows(rows, d, x.data(), gain.data(), bias.data(), 1e-5f,
                        y.data(), stats.data());
    });
    std::vector<float> h = random(size_t(rows) * ffn), hb = random(ffn),
                       hy(h.size()), hdy = random(h.size()), hdx(h.size()),
                       hdb(ffn);
    time_ns("nn.BiasGeluRows", "nn.bias_gelu_rows_ns." + suffix, [&] {
      kn::BiasGeluRows(rows, ffn, h.data(), hb.data(), hy.data());
    });
    if (suffix != "seq") continue;
    // Backward kernels at the per-example training shape.
    time_ns("nn.SoftmaxBackwardRows", "nn.softmax_backward_ns", [&] {
      kn::SoftmaxBackwardRows(attn_rows, seq, probs.data(), grad.data(),
                              dscores.data());
    });
    time_ns("nn.LayerNormBackwardRows", "nn.layernorm_backward_ns", [&] {
      kn::LayerNormBackwardRows(rows, d, x.data(), gain.data(), stats.data(),
                                dy.data(), dx.data(), dgain.data(),
                                dbias.data());
    });
    time_ns("nn.BiasGeluBackwardRows", "nn.bias_gelu_backward_ns", [&] {
      kn::BiasGeluBackwardRows(rows, ffn, h.data(), hb.data(), hdy.data(),
                               hdx.data(), hdb.data());
    });
  }
  // Computed from tensor sizes, not counted: per layer the Q/K/V/output
  // projections (4 d^2) and the FFN (8 d^2) per row, plus attention scores
  // and mixing (2 L d) per row; bytes are weights plus activations read and
  // written once, in float32.
  const double per_layer_flops =
      2.0 * seq * (12.0 * d * d) + 4.0 * seq * seq * d;
  const double per_layer_bytes =
      4.0 * (12.0 * d * d + seq * (10.0 * d + ffn) + heads * seq * seq);
  Set("nn.flops_per_forward", layers * per_layer_flops, "flop");
  Set("nn.bytes_per_forward", layers * per_layer_bytes, "byte");
}

// ---- llm: forwards, plans, batching -------------------------------------

void Probe::Llm() {
  Span root(&log_, "llm");
  {
    Span span(&log_, "llm.SimLlm.LoadCheckpoint");
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point start = Clock::now();
      auto loaded = tm::llm::SimLlm::LoadCheckpoint(checkpoint_);
      ms.push_back(1e3 * SecondsSince(start));
    }
    Set("llm.checkpoint_load_ms", Percentile(ms, 50), "ms");
  }
  {
    // First forward of a fresh copy at a given length = capture + run.
    Span span(&log_, "llm.plan_capture");
    std::vector<double> ms;
    for (size_t i = 0; i < 5 && i < prompts_.size(); ++i) {
      std::unique_ptr<tm::llm::SimLlm> fresh = model_->Clone();
      const Clock::time_point start = Clock::now();
      fresh->PredictMatchProbability(prompts_[i]);
      ms.push_back(1e3 * SecondsSince(start));
    }
    Set("llm.plan_capture_ms", Percentile(ms, 50), "ms");
  }
  auto forward_us = [&](size_t count) {
    std::vector<double> us;
    for (size_t i = 0; i < count; ++i) {
      const Clock::time_point start = Clock::now();
      model_->PredictMatchProbability(prompts_[i % prompts_.size()]);
      us.push_back(1e6 * SecondsSince(start));
    }
    return us;
  };
  {
    Span span(&log_, "llm.PredictMatchProbability");
    forward_us(prompts_.size());  // every length captured first
    const std::vector<double> us = forward_us(prompts_.size());
    Set("llm.forward_planned_us.p50", Percentile(us, 50), "us");
    Set("llm.forward_planned_us.p99", Percentile(us, 99), "us");
  }
  {
    Span span(&log_, "llm.PredictMatchProbability.dynamic");
    tm::llm::InferExecutorModeScope scope(tm::llm::InferExecutorMode::kDynamic);
    const std::vector<double> us =
        forward_us(std::min<size_t>(1000, prompts_.size()));
    Set("llm.forward_dynamic_us.p50", Percentile(us, 50), "us");
    Set("llm.forward_dynamic_us.p99", Percentile(us, 99), "us");
  }
  for (const auto& [batch, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {8, 1}, {8, 4}, {64, 4}}) {
    Span span(&log_, "llm.PredictMatchProbabilities");
    size_t offset = 0;
    const double seconds = TimePerCall(
        [&] {
          std::vector<std::string> batch_prompts;
          for (int i = 0; i < batch; ++i) {
            batch_prompts.push_back(prompts_[offset++ % prompts_.size()]);
          }
          model_->PredictMatchProbabilities(batch_prompts, threads);
        },
        0.2);
    Set("llm.batch_pairs_per_s.b" + std::to_string(batch) + "t" +
            std::to_string(threads),
        batch / seconds, "1/s");
  }
}

// ---- serve: the batcher, the JSONL front and the cache, in-process -------

void Probe::Serving() {
  Span root(&log_, "serve");
  auto shared = std::shared_ptr<tm::llm::SimLlm>(model_->Clone());
  auto served = std::make_shared<tm::serve::ServedModel>();
  served->name = "default";
  served->version = 1;
  served->source = checkpoint_;
  served->model = shared;
  {
    // The serve-unique schedule: Poisson at rate_, every pair distinct.
    Span span(&log_, "serve.MicroBatcher.Submit");
    tm::serve::MicroBatcherConfig config;  // the CLI's serve defaults
    config.cache = std::make_shared<tm::serve::ResultCache>(16u << 20);
    tm::serve::MicroBatcher batcher(config);
    const size_t count = std::min(pairs_.size(), requests_);
    tm::Rng rng(seed_ ^ 0x5e12e);
    std::vector<std::future<tm::serve::ServeResult>> futures(count);
    std::vector<Clock::time_point> submitted(count), done(count);
    // The collector stamps each answer as it lands; ready[i] tells it
    // that futures[i] exists.
    std::vector<std::promise<void>> ready(count);
    std::thread collector([&] {
      for (size_t i = 0; i < count; ++i) {
        ready[i].get_future().wait();
        futures[i].wait();
        done[i] = Clock::now();
      }
    });
    Clock::time_point due = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      due += std::chrono::nanoseconds(static_cast<long long>(
          -std::log(1.0 - rng.NextDouble()) / rate_ * 1e9));
      std::this_thread::sleep_until(due);
      submitted[i] = Clock::now();
      futures[i] = batcher.Submit(
          served, tm::prompt::PromptTemplate::kDefault,
          tm::core::MakeSurfacePair(pairs_[i].left, pairs_[i].right,
                                    tm::data::Domain::kProduct));
      ready[i].set_value();
    }
    collector.join();
    std::vector<double> queue_ms, dispatch_ms;
    for (size_t i = 0; i < count; ++i) {
      const tm::serve::ServeResult result = futures[i].get();
      const double total = std::chrono::duration<double, std::milli>(
                               done[i] - submitted[i])
                               .count();
      queue_ms.push_back(result.queue_ms);
      dispatch_ms.push_back(total - result.queue_ms);
    }
    Set("serve.queue_wait_ms.p50", Percentile(queue_ms, 50), "ms");
    Set("serve.queue_wait_ms.p99", Percentile(queue_ms, 99), "ms");
    Set("serve.dispatch_ms", Percentile(dispatch_ms, 50), "ms");
  }
  {
    Span span(&log_, "serve.JsonlServer.HandleLine");
    tm::serve::ModelRegistry registry;
    registry.Register("default", checkpoint_);
    tm::serve::MicroBatcherConfig config;
    config.cache = std::make_shared<tm::serve::ResultCache>(16u << 20);
    tm::serve::MicroBatcher batcher(config);
    tm::serve::JsonlServer server(&registry, &batcher);
    const std::string line = "{\"id\":\"1\",\"left\":" +
                             tm::json::Quote(pairs_[0].left) + ",\"right\":" +
                             tm::json::Quote(pairs_[0].right) + "}";
    // TimePerCall's first call is the miss; every timed call is a hit.
    Set("serve.jsonl_handle_us",
        1e6 * TimePerCall([&] { server.HandleLine(line); }), "us");
    batcher.Shutdown();
  }
  {
    Span span(&log_, "serve.ResultCache.Lookup");
    tm::serve::ResultCache cache(16u << 20);
    tm::serve::CacheKey key;
    key.model_version = 1;
    key.pair_hash = tm::serve::HashPair(tm::core::MakeSurfacePair(
        pairs_[0].left, pairs_[0].right, tm::data::Domain::kProduct));
    cache.Insert(key, tm::core::DecisionForProbability(0.9));
    tm::core::MatchDecision decision;
    Set("serve.cache_lookup_ns",
        1e9 * TimePerCall([&] { cache.Lookup(key, &decision); }), "ns");
  }
}

int Probe::Run(const std::string& spans_path, const std::string& out_path) {
  auto loaded = tm::llm::SimLlm::LoadCheckpoint(checkpoint_);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s\n", checkpoint_.c_str());
    return 1;
  }
  model_ = std::move(loaded).value();
  pairs_ = CorpusPairs(seed_, std::max<size_t>(2000, requests_));
  std::vector<double> lengths;
  for (const SurfacePair& pair : pairs_) {
    prompts_.push_back(ServePrompt(pair));
    lengths.push_back(model_->tokenizer()
                          .EncodeForModel(prompts_.back(),
                                          model_->config().max_seq)
                          .size());
  }
  prompt_length_ = static_cast<int>(Percentile(lengths, 50));

  Evaluators();
  Cascade();
  TextAndPrompts();
  Kernels();
  Llm();
  Serving();

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    out << (first ? "" : ",") << tm::json::Quote(name) << ":["
        << tm::json::Number(value.first) << "," << tm::json::Quote(value.second)
        << "]";
    first = false;
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [name, value] : notes_) {
    out << (first ? "" : ",") << tm::json::Quote(name) << ":"
        << tm::json::Number(value);
    first = false;
  }
  out << "},\"prompt_tokens_p50\":" << prompt_length_ << "}\n";
  return out.good() && log_.Write(spans_path) ? 0 : 1;
}

}  // namespace

int RunProbe(const Args& args) {
  const std::string spans = args.Str("spans", "");
  const std::string out = args.Str("out", "");
  for (const char* key : {"model", "entities", "budget", "scale", "rate",
                          "requests"}) {
    if (!args.Has(key)) {
      std::fprintf(stderr, "pbtool probe needs --%s\n", key);
      return 2;
    }
  }
  if (spans.empty() || out.empty()) {
    std::fprintf(stderr, "pbtool probe needs --spans and --out\n");
    return 2;
  }
  return Probe(args).Run(spans, out);
}

}  // namespace perfbench
