#include "graph/compressed.hpp"

#include <cstdint>

namespace sfs::graph {

std::size_t graph_memory_bytes(const Graph& g) noexcept {
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();
  return m * sizeof(Edge)                          // edge log
         + (n != 0 ? n + 1 : 0) * sizeof(std::size_t)  // CSR offsets
         + 2 * m * sizeof(EdgeId)                  // incidence payload
         + 2 * m * sizeof(VertexId)                // far endpoint per slot
         + 2 * n * sizeof(std::uint32_t);          // in/out degree vectors
}

}  // namespace sfs::graph
