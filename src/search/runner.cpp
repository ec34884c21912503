#include "search/runner.hpp"

namespace sfs::search {

namespace {

// The one per-model step of the loop: send the request the policy chose.
// The answer's type follows the model and feeds straight into observe.
inline graph::VertexId send_request(LocalView& view, const WeakRequest& req) {
  return view.request_edge(req);
}

inline std::span<const graph::VertexId> send_request(LocalView& view,
                                                     graph::VertexId u) {
  return view.request_vertex_span(u);
}

// The search loop, written once for both models. Branch order: target
// found, then budgets, then one policy decision, then one probe whose
// failure is absorbed by the retry budget, then observe. The failure
// branch keys off view.failed_requests(), which never moves without a
// liveness mask, so a static run takes the exact unmasked path (same
// calls, same RNG draws) — bit-identity by construction, not by testing.
//
// Everything here sits on the per-probe hot path of every search in the
// tree and stays in this TU so the loop body inlines.
template <typename Searcher>
SearchResult run_search(const graph::Graph& g, KnowledgeModel model,
                        graph::VertexId start, graph::VertexId target,
                        Searcher& searcher, rng::Rng& rng,
                        const RunBudget& budget, SearchWorkspace* workspace,
                        const LivenessView& liveness,
                        const RetryBudget& retry) {
  SearchWorkspace local;
  LocalView view(g, model, start, target,
                 workspace != nullptr ? *workspace : local, liveness);
  SearchResult r;
  std::size_t consecutive_failures = 0;
  searcher.start(view, rng);
  while (!view.target_found()) {
    if (view.requests() >= budget.max_requests ||
        view.raw_requests() >= budget.max_raw_requests) {
      r.budget_exhausted = true;
      break;
    }
    const auto req = searcher.next(view, rng);
    if (!req) {
      r.gave_up = true;
      break;
    }
    const std::size_t failures_before = view.failed_requests();
    const auto answer = send_request(view, *req);
    if (view.failed_requests() != failures_before) {
      // Stranded probe: the policy never observes it (the view already
      // marked the link dead). Too many in a row -> restart the policy on
      // the retained knowledge; out of restarts -> abandon.
      if (++consecutive_failures > retry.max_consecutive_failures) {
        if (r.restarts >= retry.max_restarts) {
          r.abandoned = true;
          break;
        }
        ++r.restarts;
        consecutive_failures = 0;
        searcher.start(view, rng);
      }
      continue;
    }
    consecutive_failures = 0;
    searcher.observe(view, *req, answer);
  }
  r.found = view.target_found();
  r.requests = view.requests();
  r.raw_requests = view.raw_requests();
  r.failed_requests = view.failed_requests();
  if (r.found) {
    const auto path = view.discovery_path();
    r.path_length = path.empty() ? 0 : path.size() - 1;
  }
  return r;
}

}  // namespace

SearchResult run_weak(const graph::Graph& g, graph::VertexId start,
                      graph::VertexId target, WeakSearcher& searcher,
                      rng::Rng& rng, const RunBudget& budget,
                      SearchWorkspace* workspace, const LivenessView& liveness,
                      const RetryBudget& retry) {
  return run_search(g, KnowledgeModel::kWeak, start, target, searcher, rng,
                    budget, workspace, liveness, retry);
}

SearchResult run_strong(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, StrongSearcher& searcher,
                        rng::Rng& rng, const RunBudget& budget,
                        SearchWorkspace* workspace,
                        const LivenessView& liveness,
                        const RetryBudget& retry) {
  return run_search(g, KnowledgeModel::kStrong, start, target, searcher, rng,
                    budget, workspace, liveness, retry);
}

}  // namespace sfs::search
