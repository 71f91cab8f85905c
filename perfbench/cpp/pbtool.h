// pbtool: the benchmark's own helper binary. It links the tailormatch
// library only to generate inputs and to call module functions in the traced
// probe; every end-to-end number comes from the real `tailormatch` CLI.
#ifndef PERFBENCH_PBTOOL_H_
#define PERFBENCH_PBTOOL_H_

#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {

// --key value / --key=value arguments after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Str(const std::string& key, const std::string& fallback) const;
  long long Int(const std::string& key, long long fallback) const;
  double Double(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

// pbtool pairs: seeded entity pairs from data::CorpusStream, one TSV line
// each, with the offline reference probability on sampled lines.
int RunPairs(const Args& args);

// pbtool load: replays a request schedule over loopback TCP connections and
// records due / sent / answered times for every request.
int RunLoad(const Args& args);

// pbtool probe: the module calls of the traced per-layer run.
int RunProbe(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_PBTOOL_H_
