// Seeded mutational fuzz test for every parser of input from outside the
// process. Each parser gets a few thousand byte-level mutants of valid seed
// inputs, made from a fixed SplitMix64 seed so every run sees the same
// mutants. Every mutant must end as an error with a non-empty message, or
// as a value that meets the parser's documented invariants, and never as a
// crash. scripts/check.sh --sanitize runs it under ASan+UBSan too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "sanitizer/config.hpp"
#include "serve/arrivals.hpp"
#include "serve/trace_file.hpp"
#include "sim/fault.hpp"
#include "trace/alerts.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"

namespace eta {
namespace {

constexpr int kMutants = 3000;  // per parser

// Spliced into mutants: digits, signs, exponents, non-finite spellings,
// separators and digit runs that overflow every integer type.
const char* const kSplices[] = {
    "0",   "1",    "7",   "-",   "+",    "e",    "E",  ".",  "nan", "inf",
    "-inf", ",",   "=",   ":",   " ",    "\n",   "#",  "0x", "1e400",
    "1e-400", "4294967295", "4294967296", "18446744073709551616",
    "99999999999999999999999999999999",
};

// Field boundaries for whole-field replacement.
constexpr const char* kSeparators = " ,=:\n#";

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string s) {
    const uint64_t edits = 1 + rng_.NextBounded(4);
    for (uint64_t i = 0; i < edits; ++i) {
      const size_t pos = rng_.NextBounded(s.size() + 1);
      const char* splice = kSplices[rng_.NextBounded(std::size(kSplices))];
      switch (rng_.NextBounded(6)) {
        case 0:  // splice in a token
          s.insert(pos, splice);
          break;
        case 5: {  // replace the whole field around pos, e.g. a value by "nan"
          const size_t begin = s.find_last_of(kSeparators, pos == 0 ? 0 : pos - 1);
          const size_t first = begin == std::string::npos || pos == 0 ? 0 : begin + 1;
          const size_t end = std::min(s.find_first_of(kSeparators, pos), s.size());
          s = s.substr(0, first) + splice + s.substr(std::max(first, end));
          break;
        }
        case 1:  // delete a short run
          if (pos < s.size()) s.erase(pos, 1 + rng_.NextBounded(4));
          break;
        case 2:  // flip one bit
          if (pos < s.size()) s[pos] = static_cast<char>(s[pos] ^ (1 << rng_.NextBounded(8)));
          break;
        case 3:  // overwrite with a random byte
          if (pos < s.size()) s[pos] = static_cast<char>(rng_.NextBounded(256));
          break;
        default:  // duplicate a chunk
          if (pos < s.size()) s.insert(pos, s.substr(pos, 1 + rng_.NextBounded(8)));
          break;
      }
    }
    return s;
  }

 private:
  util::SplitMix64 rng_;
};

/// Runs `check` on kMutants mutants of the seeds, round-robin.
template <typename Check>
void Fuzz(const std::vector<std::string>& seeds, uint64_t seed, Check check) {
  Mutator mutator(seed);
  for (int i = 0; i < kMutants; ++i) {
    const std::string input = mutator.Mutate(seeds[i % seeds.size()]);
    SCOPED_TRACE(::testing::Message() << "mutant " << i << ": '" << input << "'");
    check(input);
  }
}

template <typename T>
void CheckNumber(const std::string& text, T lo, T hi) {
  const util::Parsed<T> parsed = util::ParseNumber(text, lo, hi);
  if (!parsed) {
    EXPECT_EQ(parsed.error.rfind("must be ", 0), 0u) << parsed.error;
    return;
  }
  EXPECT_GE(parsed.value, lo);
  EXPECT_LE(parsed.value, hi);
  if constexpr (std::is_floating_point_v<T>) {
    EXPECT_TRUE(std::isfinite(parsed.value));
  }
}

TEST(Fuzz, ParseNumber) {
  Fuzz({"0", "42", "-17", "3.25", "1e5", "18446744073709551615", "-9223372036854775808"}, 1,
       [](const std::string& text) {
         CheckNumber<int32_t>(text, -1000, 1000);
         CheckNumber<uint32_t>(text, 1, 4294967294u);
         CheckNumber<int64_t>(text, std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max());
         CheckNumber<uint64_t>(text, 0, std::numeric_limits<uint64_t>::max());
         CheckNumber<double>(text, util::kAboveZero, 1.0);
         CheckNumber<double>(text, std::numeric_limits<double>::lowest(),
                             std::numeric_limits<double>::max());
       });
}

TEST(Fuzz, Split) {
  Fuzz({"a,b,c", ",,", "", "poisson:rate=1,n=2"}, 2, [](const std::string& text) {
    const std::vector<std::string_view> items = util::Split(text, ',');
    std::string joined;
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i].find(','), std::string_view::npos);
      if (i > 0) joined += ',';
      joined += items[i];
    }
    EXPECT_EQ(joined, text);
  });
}

TEST(Fuzz, CommandLine) {
  Fuzz({"--requests=64 --scale 0.25 --detail pos", "--k=16 --source=3 -- x"}, 3,
       [](const std::string& text) {
         std::vector<std::string> args = {"prog"};
         for (std::string_view word : util::Split(text, ' ')) args.emplace_back(word);
         std::vector<const char*> argv;
         for (const std::string& a : args) argv.push_back(a.c_str());
         std::string error;
         const auto cl =
             util::CommandLine::Parse(static_cast<int>(argv.size()), argv.data(), &error);
         if (!cl) {
           EXPECT_FALSE(error.empty());
           return;
         }
         EXPECT_LE(cl->Positional().size(), args.size() - 1);
         for (const std::string& name : cl->UnusedFlags()) {
           EXPECT_TRUE(cl->Has(name));
           CheckNumber<int64_t>(cl->GetString(name, ""), 1, 1 << 20);
         }
       });
}

TEST(Fuzz, FaultConfig) {
  Fuzz({"seed=7,ecc=0.5,uecc=0.25,hang=0.125,lost=0.0625,alloc=0.03125,watchdog=40,words=8",
        "uecc_at=3,alloc_at=2,,", "rmw=reach_mask,short=act_set,dag=drop-wait",
        "dag=late-record,seed=3", "dag=dup-copy,rmw=stamp,lost_at=1"},
       4, [](const std::string& text) {
         std::string error;
         const auto config = sim::FaultConfig::Parse(text, &error);
         if (!config) {
           EXPECT_FALSE(error.empty());
           return;
         }
         for (double rate : {config->ecc_correctable_rate, config->ecc_uncorrectable_rate,
                             config->hang_rate, config->device_loss_rate,
                             config->alloc_fail_rate}) {
           EXPECT_TRUE(std::isfinite(rate) && rate >= 0 && rate <= 1) << rate;
         }
         EXPECT_TRUE(std::isfinite(config->watchdog_ms) && config->watchdog_ms > 0);
         EXPECT_GE(config->corrupt_words, 1u);
         EXPECT_LE(config->corrupt_words, 1u << 20);
         // Plants never arm the injector: clearing them leaves Enabled().
         sim::FaultConfig bare = *config;
         bare.rmw_buffer.clear();
         bare.short_buffer.clear();
         bare.dag = sim::FaultConfig::Dag::kNone;
         EXPECT_EQ(bare.Enabled(), config->Enabled());
         EXPECT_FALSE(bare.Planted());
         EXPECT_EQ(config->rmw_buffer.find(','), std::string::npos);
         EXPECT_EQ(config->short_buffer.find(','), std::string::npos);
       });
}

TEST(Fuzz, ArrivalSpec) {
  Fuzz({"bursty:rate=1500,n=512,on=10,off=90,offscale=0.25,gold=0.1,silver=0.4,seed=42",
        "diurnal:rate=800,period=500,trough=0.1,graphs=4,hot=0.7,tenants=3,slo=1,cc=0.1,"
        "pr=0.1,gd=5,sd=10,bd=20"},
       5, [](const std::string& text) {
         serve::ArrivalOptions o;
         std::string error;
         if (!serve::ParseArrivalSpec(text, &o, &error)) {
           EXPECT_FALSE(error.empty());
           return;
         }
         EXPECT_TRUE(std::isfinite(o.rate_qps) && o.rate_qps > 0);
         EXPECT_TRUE(o.num_requests >= 1 && o.num_requests <= serve::kMaxArrivalRequests);
         EXPECT_TRUE(std::isfinite(o.on_ms) && o.on_ms > 0);
         EXPECT_TRUE(std::isfinite(o.off_ms) && o.off_ms >= 0);
         EXPECT_TRUE(std::isfinite(o.period_ms) && o.period_ms > 0);
         EXPECT_GE(o.num_graphs, 1u);
         EXPECT_LE(o.tenants.size(), serve::kMaxArrivalTenants);
         for (double f : {o.trough_scale, o.hot_graph_fraction, o.cc_fraction, o.pr_fraction,
                          o.gold_fraction, o.silver_fraction}) {
           EXPECT_TRUE(f >= 0 && f <= 1) << f;
         }
         EXPECT_LE(o.gold_fraction + o.silver_fraction, 1.0 + 1e-9);
         EXPECT_LE(o.cc_fraction + o.pr_fraction, 1.0 + 1e-9);
         for (double d : {o.gold_deadline_ms, o.silver_deadline_ms, o.bronze_deadline_ms}) {
           EXPECT_GT(d, 0);
         }
       });
}

TEST(Fuzz, AlertSpec) {
  Fuzz({"0.999,50,500,2", "0.99,20"}, 6, [](const std::string& text) {
    trace::AlertOptions o;
    std::string error;
    if (!trace::ParseAlertSpec(text, &o, &error)) {
      EXPECT_FALSE(error.empty());
      return;
    }
    EXPECT_TRUE(o.objective > 0 && o.objective < 1);
    EXPECT_TRUE(std::isfinite(o.slow_window_ms) && o.fast_window_ms > 0 &&
                o.fast_window_ms <= o.slow_window_ms);
    EXPECT_TRUE(std::isfinite(o.burn_threshold) && o.burn_threshold > 0);
  });
}

TEST(Fuzz, SanitizerConfig) {
  Fuzz({"memcheck,racecheck", "synccheck,leakcheck,", "all"}, 7, [](const std::string& text) {
    const auto config = sanitizer::Config::Parse(text);
    if (!config || text.empty() || text == "all" || text == "true") return;
    // Every tool turned on is named in the list.
    EXPECT_TRUE(!config->memcheck || text.find("memcheck") != std::string::npos);
    EXPECT_TRUE(!config->racecheck || text.find("racecheck") != std::string::npos);
    EXPECT_TRUE(!config->synccheck || text.find("synccheck") != std::string::npos);
    EXPECT_TRUE(!config->leakcheck || text.find("leakcheck") != std::string::npos);
  });
}

TEST(Fuzz, TraceText) {
  Fuzz({"0 bfs 7\n1.5 SSSP 12 4.5\n# comment\n2 sswp 3 0 -2\n", "0.25 cc 1 10 3 # tail\n"}, 8,
       [](const std::string& text) {
         std::string error;
         const auto trace = serve::ParseTraceText(text, &error);
         if (!trace) {
           EXPECT_EQ(error.rfind("trace line ", 0), 0u) << error;
           return;
         }
         for (size_t i = 0; i < trace->size(); ++i) {
           const serve::Request& r = (*trace)[i];
           EXPECT_EQ(r.id, i);
           EXPECT_TRUE(std::isfinite(r.arrival_ms) && r.arrival_ms >= 0);
           if (i > 0) {
             EXPECT_GE(r.arrival_ms, (*trace)[i - 1].arrival_ms);
           }
           EXPECT_LT(r.source, graph::kInvalidVertex);
           EXPECT_GT(r.deadline_ms, 0);
         }
       });
}

TEST(Fuzz, ReplayText) {
  Fuzz({"# id status algo source reached batch start_ms finish_ms\n"
        "0 ok bfs 7 10 1 0.0000 1.2500\n1 timed-out sssp 3 0 2 1.0000 4.0000\n"},
       9, [](const std::string& text) {
         std::string error;
         const auto results = serve::ParseReplayText(text, &error);
         if (!results) {
           EXPECT_EQ(error.rfind("replay line ", 0), 0u) << error;
           return;
         }
         for (const serve::QueryResult& q : *results) {
           EXPECT_TRUE(std::isfinite(q.finish_ms) && q.start_ms >= 0 && q.finish_ms >= q.start_ms);
           EXPECT_LT(q.source, graph::kInvalidVertex);
         }
       });
}

TEST(Fuzz, JsonParse) {
  Fuzz({R"({"a":[1,-2.5e3,true,null],"b":{"c":"x\"y"},"d":1e400})", "[0,{},[]]"}, 10,
       [](const std::string& text) {
         std::string error;
         if (!util::JsonParse(text, &error)) {
           EXPECT_FALSE(error.empty());
         }
       });
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A small weighted graph with a skewed degree and an isolated tail vertex.
graph::Csr SeedGraph() {
  graph::Csr csr = graph::BuildCsr(std::vector<graph::Edge>{
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 0}, {3, 4}, {4, 1}});
  csr.DeriveWeights(5);
  return csr;
}

TEST(Fuzz, GaloisGr) {
  const std::string path = ::testing::TempDir() + "eta_fuzz.gr";
  graph::WriteGaloisGr(SeedGraph(), path);
  Fuzz({ReadFile(path)}, 11, [&](const std::string& bytes) {
    WriteFile(path, bytes);
    std::string error;
    const auto csr = graph::ReadGaloisGr(path, &error);
    if (!csr) {
      EXPECT_FALSE(error.empty());
      return;
    }
    EXPECT_TRUE(csr->Validate());
  });
}

TEST(Fuzz, EdgeListText) {
  const std::string path = ::testing::TempDir() + "eta_fuzz.txt";
  graph::WriteEdgeListText(SeedGraph(), path);
  Fuzz({ReadFile(path), "# unweighted\n0 1\n1 2\n2 0\n"}, 12, [&](const std::string& text) {
    WriteFile(path, text);
    std::string error;
    const auto csr = graph::ReadEdgeListText(path, &error);
    if (!csr) {
      EXPECT_EQ(error.rfind(path, 0), 0u) << error;
      return;
    }
    EXPECT_TRUE(csr->Validate());
    EXPECT_LE(csr->NumVertices(), 64 * (uint64_t{csr->NumEdges()} + 1));
  });
}

// ParseNumber<double> must agree with strtod, bit for bit, on every
// decimal string strtod reads as a finite value.
TEST(Fuzz, ParseDoubleMatchesStrtod) {
  util::SplitMix64 rng(13);
  for (int i = 0; i < 200000; ++i) {
    std::string text = rng.NextBounded(4) == 0 ? "-" : "";
    for (uint64_t d = 1 + rng.NextBounded(20); d > 0; --d) text += char('0' + rng.NextBounded(10));
    if (rng.NextBounded(2) == 0) {
      text += '.';
      for (uint64_t d = rng.NextBounded(20); d > 0; --d) text += char('0' + rng.NextBounded(10));
    }
    if (rng.NextBounded(2) == 0) {
      text += rng.NextBounded(2) == 0 ? "e" : "e-";
      text += std::to_string(rng.NextBounded(340));
    }
    const double expected = std::strtod(text.c_str(), nullptr);
    const util::Parsed<double> parsed = util::ParseNumber<double>(text);
    if (!std::isfinite(expected)) {
      EXPECT_FALSE(parsed) << text;
      continue;
    }
    ASSERT_TRUE(parsed) << text << ": " << parsed.error;
    ASSERT_EQ(std::memcmp(&parsed.value, &expected, sizeof(double)), 0) << text;
  }
}

}  // namespace
}  // namespace eta
