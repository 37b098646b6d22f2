#include "graph/edge_list_io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph_builder.h"
#include "util/string_util.h"

namespace holim {
namespace {

/// Rows are parsed straight out of one read buffer of this size, so a
/// multi-GB SNAP file costs a chunk of extra memory, not a copy of itself.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

/// Space, tab and CR separate tokens; LF ends a row.
bool IsBlank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Pops the next token off the front of `row`; empty once none is left.
std::string_view NextToken(std::string_view& row) {
  std::size_t begin = 0;
  while (begin < row.size() && IsBlank(row[begin])) ++begin;
  std::size_t end = begin;
  while (end < row.size() && !IsBlank(row[end])) ++end;
  const std::string_view token = row.substr(begin, end - begin);
  row.remove_prefix(end);
  return token;
}

/// Scans an edge list in kReadChunk reads, carrying a row split across two
/// reads to the front of the buffer (a row longer than the buffer grows
/// it). Blank rows and rows whose first token starts with '#' or '%' are
/// skipped. Each other row needs two node-id tokens; they are mapped to
/// NodeIds (first-appearance order under `options.renumber`, else as
/// written) and handed to `on_row(u, v, rest)` with the row's remaining
/// text. Returns the node count.
template <typename OnRow>
Result<NodeId> ScanEdgeRows(const std::string& path,
                            const EdgeListOptions& options, OnRow&& on_row) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open: " + path);

  std::unordered_map<uint64_t, NodeId> remap;
  uint64_t n64 = 0;  // without renumbering: the largest id + 1
  uint64_t line_number = 0;
  auto scan_row = [&](std::string_view row) -> Status {
    ++line_number;
    std::string_view rest = row;
    const std::string_view u_token = NextToken(rest);
    if (u_token.empty() || u_token[0] == '#' || u_token[0] == '%') {
      return Status::OK();
    }
    const std::string_view v_token = NextToken(rest);
    const auto located = [&](StatusCode code, const std::string& what) {
      return Status(code, what + " at line " + std::to_string(line_number) +
                              ": " + std::string(row));
    };
    if (v_token.empty()) {
      return located(StatusCode::kIOError, "malformed edge row");
    }
    uint64_t raw[2] = {0, 0};
    if (!ParseNumber(u_token, raw[0]) || !ParseNumber(v_token, raw[1])) {
      return located(StatusCode::kIOError, "non-numeric node id");
    }
    NodeId ids[2];
    for (int i = 0; i < 2; ++i) {
      if (options.renumber) {
        ids[i] = remap.try_emplace(raw[i], static_cast<NodeId>(remap.size()))
                     .first->second;
      } else if (raw[i] >= kInvalidNode) {
        return Status::OutOfRange("node count exceeds NodeId range");
      } else {
        ids[i] = static_cast<NodeId>(raw[i]);
        n64 = std::max(n64, raw[i] + 1);
      }
    }
    const Status status = on_row(ids[0], ids[1], rest);
    return status.ok() ? status : located(status.code(), status.message());
  };

  std::vector<char> buffer(kReadChunk);
  std::size_t filled = 0;  // buffer[0, filled) holds unscanned bytes
  while (true) {
    in.read(buffer.data() + filled,
            static_cast<std::streamsize>(buffer.size() - filled));
    if (in.bad()) {
      return Status::IOError("read error (truncated stream?): " + path);
    }
    filled += static_cast<std::size_t>(in.gcount());
    const bool at_end = !in;  // a short read: the file is exhausted
    const char* row = buffer.data();
    const char* const end = buffer.data() + filled;
    while (const void* newline =
               std::memchr(row, '\n', static_cast<std::size_t>(end - row))) {
      const char* const row_end = static_cast<const char*>(newline);
      HOLIM_RETURN_NOT_OK(
          scan_row({row, static_cast<std::size_t>(row_end - row)}));
      row = row_end + 1;
    }
    filled = static_cast<std::size_t>(end - row);
    if (at_end) {
      if (filled != 0) HOLIM_RETURN_NOT_OK(scan_row({row, filled}));
      break;
    }
    std::memmove(buffer.data(), row, filled);
    if (filled == buffer.size()) buffer.resize(2 * buffer.size());
  }

  if (options.renumber) n64 = remap.size();
  if (n64 > static_cast<uint64_t>(kInvalidNode)) {
    return Status::OutOfRange("node count exceeds NodeId range");
  }
  return static_cast<NodeId>(n64);
}

}  // namespace

Result<Graph> ReadEdgeList(const std::string& path,
                           const EdgeListOptions& options) {
  std::vector<NodeId> ends;  // u, v per row, in file order
  auto add_row = [&ends](NodeId u, NodeId v, std::string_view) {
    ends.push_back(u);
    ends.push_back(v);
    return Status::OK();
  };
  HOLIM_ASSIGN_OR_RETURN(const NodeId n, ScanEdgeRows(path, options, add_row));
  GraphBuilder builder(n);
  for (std::size_t i = 0; i < ends.size(); i += 2) {
    if (options.undirected) {
      builder.AddUndirectedEdge(ends[i], ends[i + 1]);
    } else {
      builder.AddEdge(ends[i], ends[i + 1]);
    }
  }
  ends.clear();
  ends.shrink_to_fit();
  return std::move(builder).Build();
}

Result<WeightedEdgeList> ReadWeightedEdgeList(const std::string& path,
                                              const EdgeListOptions& options) {
  struct Arc {
    NodeId u, v;
    double p;
  };
  std::vector<Arc> arcs;
  auto add_row = [&](NodeId u, NodeId v, std::string_view rest) -> Status {
    const std::string_view token = NextToken(rest);
    if (token.empty()) return Status::IOError("expected 'u v p' row");
    double p = 0.0;
    if (!ParseNumber(token, p)) return Status::IOError("malformed probability");
    // NaN fails every comparison, so the range check alone would wave it
    // through; reject non-finite explicitly.
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("probability not a finite value in [0,1]");
    }
    if (u == v) return Status::OK();
    arcs.push_back({u, v, p});
    if (options.undirected) arcs.push_back({v, u, p});
    return Status::OK();
  };
  HOLIM_ASSIGN_OR_RETURN(const NodeId n, ScanEdgeRows(path, options, add_row));

  // GraphBuilder sorts arcs by (src, dst); build the probability array in
  // that same order. Duplicate arcs keep the max probability.
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });

  WeightedEdgeList out;
  GraphBuilder builder(n);
  builder.set_deduplicate(false);
  NodeId prev_u = kInvalidNode, prev_v = kInvalidNode;
  for (const Arc& arc : arcs) {
    if (arc.u == prev_u && arc.v == prev_v) {
      out.probability.back() = std::max(out.probability.back(), arc.p);
      continue;
    }
    prev_u = arc.u;
    prev_v = arc.v;
    builder.AddEdge(arc.u, arc.v);
    out.probability.push_back(arc.p);
  }
  HOLIM_ASSIGN_OR_RETURN(out.graph, std::move(builder).Build());
  return out;
}

Status WriteEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot open for writing: " + path);
  out << "# holim edge list: n=" << graph.num_nodes()
      << " m=" << graph.num_edges() << "\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      out << u << '\t' << v << '\n';
    }
  }
  return Status::OK();
}

}  // namespace holim
