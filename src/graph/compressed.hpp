// Memory accounting for the resident Graph representation.
//
// The header keeps this path, not graph/graph.hpp, because all three
// perfbench workloads (perfbench/src/{sweep,lookup,churn}.cpp) include it
// for their `graph.csr_mib` metric, and perfbench changes only in
// benchmark changes.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace sfs::graph {

/// Heap bytes of the uncompressed Graph representation (size-based, not
/// capacity-based): edge records + CSR offsets/incidence/far-endpoint
/// arrays + degree vectors.
[[nodiscard]] std::size_t graph_memory_bytes(const Graph& g) noexcept;

}  // namespace sfs::graph
