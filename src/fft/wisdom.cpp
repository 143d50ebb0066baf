#include "fft/wisdom.hpp"

#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "fft/plan1d.hpp"

namespace hs::fft {

namespace {

struct WisdomRegistry {
  std::mutex mutex;
  std::map<std::pair<std::size_t, int>, WisdomEntry> entries;
};

WisdomRegistry& registry() {
  static WisdomRegistry instance;
  return instance;
}

void validate(std::size_t n, const std::vector<int>& factors, int tier) {
  HS_REQUIRE(!factors.empty() || n == 1, "empty factor list");
  std::size_t product = 1;
  for (const int f : factors) {
    HS_REQUIRE(f >= 2 && f <= kMaxDirectRadix,
               "wisdom factor outside direct-radix range");
    product *= static_cast<std::size_t>(f);
  }
  HS_REQUIRE(product == n, "wisdom factors do not multiply to the size");
  HS_REQUIRE(tier >= kTierUnspecified &&
                 tier <= static_cast<int>(common::SimdTier::kAvx2),
             "wisdom tier outside the known range");
}

void remember(std::size_t n, Direction dir, std::vector<int> factors,
              int tier) {
  validate(n, factors, tier);
  WisdomRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.entries[{n, static_cast<int>(dir)}] =
      WisdomEntry{std::move(factors), tier};
}

}  // namespace

void wisdom_remember(std::size_t n, Direction dir, std::vector<int> factors) {
  remember(n, dir, std::move(factors), kTierUnspecified);
}

void wisdom_remember(std::size_t n, Direction dir, std::vector<int> factors,
                     common::SimdTier tier) {
  remember(n, dir, std::move(factors), static_cast<int>(tier));
}

std::optional<std::vector<int>> wisdom_lookup(std::size_t n, Direction dir) {
  if (auto entry = wisdom_lookup_entry(n, dir)) return entry->factors;
  return std::nullopt;
}

std::optional<WisdomEntry> wisdom_lookup_entry(std::size_t n, Direction dir) {
  WisdomRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.entries.find({n, static_cast<int>(dir)});
  if (it == reg.entries.end()) return std::nullopt;
  return it->second;
}

std::size_t wisdom_size() {
  WisdomRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.entries.size();
}

void wisdom_clear() {
  WisdomRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.entries.clear();
}

void wisdom_save(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw IoError("cannot create wisdom file: " + path);
  file << "# hybridstitch fft wisdom v2\n";
  WisdomRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& [key, entry] : reg.entries) {
    file << key.first << " " << key.second << " " << entry.tier;
    for (const int f : entry.factors) file << " " << f;
    file << "\n";
  }
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to wisdom file: " + path);
}

void wisdom_load(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw IoError("cannot open wisdom file: " + path);
  std::string line;
  if (!std::getline(file, line) ||
      line.rfind("# hybridstitch fft wisdom", 0) != 0) {
    throw IoError("not a wisdom file: " + path);
  }
  // v1 lines are "n dir f1 f2 ..."; v2 adds the tier column after dir.
  const bool has_tier = line.find(" v2") != std::string::npos;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream stream(line);
    std::size_t n = 0;
    int dir = 0;
    int tier = kTierUnspecified;
    if (!(stream >> n >> dir) || (dir != 0 && dir != 1) ||
        (has_tier && !(stream >> tier))) {
      throw IoError("malformed wisdom line in '" + path + "': " + line);
    }
    std::vector<int> factors;
    for (int f = 0; stream >> f;) factors.push_back(f);
    try {
      remember(n, static_cast<Direction>(dir), std::move(factors), tier);
    } catch (const InvalidArgument& error) {
      throw IoError("invalid wisdom entry in '" + path +
                    "': " + error.what());
    }
  }
}

}  // namespace hs::fft
