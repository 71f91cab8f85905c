#include "pbtool.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      values_[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "";
    }
  }
}

std::string Args::Str(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Args::Int(const std::string& key, long long fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atoll(it->second.c_str());
}

double Args::Double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbtool pairs|load|probe [--key value ...]\n");
    return 2;
  }
  const std::string command = argv[1];
  perfbench::Args args(argc, argv, 2);
  if (command == "pairs") return perfbench::RunPairs(args);
  if (command == "load") return perfbench::RunLoad(args);
  if (command == "probe") return perfbench::RunProbe(args);
  std::fprintf(stderr, "unknown pbtool command: %s\n", command.c_str());
  return 2;
}
