#include "inputs.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "graph/graph_io.h"

namespace perfbench {

using csce::Graph;
using csce::MatchVariant;
using csce::Status;

const std::vector<Family>& EnumFamilies() {
  // Shapes follow the paper's Table IV workloads: skewed tree-like
  // Patent patterns, large sparse Human patterns, dense RoadCA grid
  // patterns and small complex DIP patterns. The count windows drop
  // near-empty queries and cap the oracle's cost (BacktrackingMatcher
  // counts 1-10 M embeddings/s), which also bounds each query's work;
  // CSCE's running time plays no part in the selection.
  static const std::vector<Family> kFamilies = {
      {"patent", 8, Density::kSparse, 3, 4, "EVH", 10'000, 10'000'000},
      {"patent", 12, Density::kSparse, 11, 4, "EVH", 10'000, 10'000'000},
      {"patent", 12, Density::kDense, 5, 4, "EVH", 10'000, 10'000'000},
      {"patent", 16, Density::kDense, 7, 4, "EVH", 10'000, 10'000'000},
      {"human", 20, Density::kSparse, 3, 6, "EH", 10'000, 50'000'000},
      {"roadca", 16, Density::kDense, 1, 6, "EV", 1'000, 2'000'000},
      {"dip", 6, Density::kComplex, 1, 4, "EVH", 1'000, 2'000'000},
  };
  return kFamilies;
}

const std::vector<Family>& SessionFamilies() {
  // Short selective queries: at most 10^4 embeddings each.
  static const std::vector<Family> kFamilies = {
      {"subcategory", 8, Density::kDense, 21, 4, "EVH", 1, 10'000},
      {"subcategory", 16, Density::kDense, 21, 4, "EVH", 1, 10'000},
      {"subcategory", 24, Density::kDense, 21, 4, "EVH", 1, 10'000},
      {"subcategory", 32, Density::kDense, 21, 4, "EVH", 1, 10'000},
      {"subcategory", 8, Density::kComplex, 22, 3, "EVH", 1, 10'000},
      {"subcategory", 12, Density::kComplex, 22, 3, "EVH", 1, 10'000},
      {"subcategory", 16, Density::kComplex, 22, 3, "EVH", 1, 10'000},
  };
  return kFamilies;
}

const char* DensityName(Density d) {
  switch (d) {
    case Density::kDense:
      return "dense";
    case Density::kSparse:
      return "sparse";
    case Density::kComplex:
      return "complex";
  }
  return "?";
}

char VariantLetter(MatchVariant v) {
  switch (v) {
    case MatchVariant::kEdgeInduced:
      return 'E';
    case MatchVariant::kVertexInduced:
      return 'V';
    case MatchVariant::kHomomorphic:
      return 'H';
  }
  return '?';
}

Status ParseVariantLetter(char c, MatchVariant* out) {
  switch (c) {
    case 'E':
      *out = MatchVariant::kEdgeInduced;
      return Status::OK();
    case 'V':
      *out = MatchVariant::kVertexInduced;
      return Status::OK();
    case 'H':
      *out = MatchVariant::kHomomorphic;
      return Status::OK();
  }
  return Status::InvalidArgument(std::string("unknown variant '") + c + "'");
}

namespace {

std::string FamilyStem(const Family& f) {
  return f.dataset + "-s" + std::to_string(f.size) + "-" +
         DensityName(f.density) + "-" + std::to_string(f.seed);
}

Status ParseDensity(const std::string& s, Density* out) {
  for (Density d : {Density::kDense, Density::kSparse, Density::kComplex}) {
    if (s == DensityName(d)) {
      *out = d;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown density '" + s + "'");
}

}  // namespace

std::string QueryId(const QuerySpec& q) {
  return FamilyStem(q.family) + "-" + std::to_string(q.index) + "-" +
         VariantLetter(q.variant);
}

Status MakeDataset(const std::string& name, Graph* out) {
  namespace ds = csce::datasets;
  if (name == "patent") {
    *out = ds::Patent(18);
  } else if (name == "human") {
    *out = ds::Human();
  } else if (name == "roadca") {
    *out = ds::RoadCa();
  } else if (name == "dip") {
    *out = ds::Dip();
  } else if (name == "subcategory") {
    *out = ds::Subcategory();
  } else {
    return Status::InvalidArgument("unknown dataset '" + name + "'");
  }
  return Status::OK();
}

Status SampleFamily(const Graph& data, const Family& f, uint32_t count,
                    std::vector<Graph>* out) {
  if (f.density == Density::kComplex) {
    return csce::SampleDensePatterns(data, f.size, /*min_avg_degree=*/3.0,
                                     count, f.seed, out);
  }
  return csce::SamplePatterns(data, f.size,
                              f.density == Density::kSparse
                                  ? csce::PatternDensity::kSparse
                                  : csce::PatternDensity::kDense,
                              count, f.seed, out);
}

std::string GraphPath(const std::string& dir, const std::string& dataset) {
  return dir + "/" + dataset + ".graph.txt";
}

std::string PatternPath(const std::string& dir, const Family& f,
                        uint32_t index) {
  return dir + "/" + FamilyStem(f) + "-" + std::to_string(index) + ".txt";
}

Status ReadQueryTable(const std::string& path, std::vector<QuerySpec>* out) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  out->clear();
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    QuerySpec q;
    std::string density, variant;
    if (!(fields >> q.family.dataset >> q.family.size >> density >>
          q.family.seed >> q.index >> variant >> q.expected) ||
        variant.size() != 1) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": malformed query line");
    }
    CSCE_RETURN_IF_ERROR(ParseDensity(density, &q.family.density));
    CSCE_RETURN_IF_ERROR(ParseVariantLetter(variant[0], &q.variant));
    out->push_back(std::move(q));
  }
  if (out->empty()) return Status::InvalidArgument(path + ": no queries");
  return Status::OK();
}

Status WriteQueryTable(const std::string& path,
                       const std::vector<QuerySpec>& queries) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  out << "# Oracle table of the enum-serial/enum-parallel query list.\n"
         "# Rebuilt by `perfbench oracle` (BacktrackingMatcher counts).\n"
         "# dataset\tsize\tdensity\tseed\tindex\tvariant\tembeddings\n";
  for (const QuerySpec& q : queries) {
    out << q.family.dataset << '\t' << q.family.size << '\t'
        << DensityName(q.family.density) << '\t' << q.family.seed << '\t'
        << q.index << '\t' << VariantLetter(q.variant) << '\t' << q.expected
        << '\n';
  }
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

Status GenerateInputs(const std::string& workload, const std::string& table,
                      const std::string& dir) {
  std::filesystem::create_directories(dir);
  // Per family stem: the family and how many of its patterns are used.
  std::map<std::string, std::vector<std::pair<Family, uint32_t>>> by_dataset;
  auto use = [&](const Family& f, uint32_t count) {
    auto& fams = by_dataset[f.dataset];
    for (auto& [known, n] : fams) {
      if (FamilyStem(known) == FamilyStem(f)) {
        n = std::max(n, count);
        return;
      }
    }
    fams.emplace_back(f, count);
  };
  if (workload == "session-mix") {
    for (const Family& f : SessionFamilies()) use(f, f.count);
  } else {
    std::vector<QuerySpec> queries;
    CSCE_RETURN_IF_ERROR(ReadQueryTable(table, &queries));
    for (const QuerySpec& q : queries) use(q.family, q.index + 1);
  }
  for (const auto& [dataset, fams] : by_dataset) {
    Graph g;
    CSCE_RETURN_IF_ERROR(MakeDataset(dataset, &g));
    CSCE_RETURN_IF_ERROR(csce::SaveGraphToFile(g, GraphPath(dir, dataset)));
    for (const auto& [f, count] : fams) {
      std::vector<Graph> patterns;
      CSCE_RETURN_IF_ERROR(SampleFamily(g, f, count, &patterns));
      for (uint32_t i = 0; i < count; ++i) {
        CSCE_RETURN_IF_ERROR(
            csce::SaveGraphToFile(patterns[i], PatternPath(dir, f, i)));
      }
    }
  }
  return Status::OK();
}

}  // namespace perfbench
