#ifndef HOLIM_DATA_DATASETS_H_
#define HOLIM_DATA_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace holim {

/// \brief Registry of synthetic stand-ins for the paper's Table 2 datasets.
///
/// The originals are SNAP/arXiv crawls that are not shipped with this repo;
/// each stand-in is generated to match the original's shape: node/edge
/// count (scaled by `scale` in (0, 1]), directedness, and a heavy-tailed
/// degree distribution (Barabási–Albert for the undirected collaboration /
/// social graphs, RMAT for the directed follower graphs). Real SNAP edge
/// lists can be substituted via ReadEdgeList() without code changes.
struct DatasetSpec {
  std::string name;
  NodeId paper_nodes;       // n reported in Table 2
  EdgeId paper_edges;       // m reported in Table 2
  bool directed;            // Table 2 "Type"
  double paper_avg_degree;  // Table 2 "Avg. Degree"
  double paper_diameter90;  // Table 2 "90-%ile Diameter"
};

/// All eight Table 2 rows, in paper order.
const std::vector<DatasetSpec>& AllDatasetSpecs();

/// Looks up a spec by name ("NetHEPT", "HepPh", "DBLP", "YouTube",
/// "SocLiveJournal", "Orkut", "Twitter", "Friendster").
Result<DatasetSpec> FindDatasetSpec(const std::string& name);

/// Materializes the synthetic stand-in at `scale` (1.0 = paper size; the
/// benches default to smaller scales so they finish on commodity hardware —
/// the shared `--scale` flag sets it, default 0.2). Deterministic in
/// (name, scale).
Result<Graph> LoadSyntheticDataset(const std::string& name, double scale = 1.0);

/// Convenience: the four "medium" datasets used throughout Sec. 4
/// (NetHEPT, HepPh, DBLP, YouTube).
std::vector<std::string> MediumDatasetNames();

/// The four "large" datasets of Fig. 7j.
std::vector<std::string> LargeDatasetNames();

}  // namespace holim

#endif  // HOLIM_DATA_DATASETS_H_
