// Resumable drive machines: the runner's weak/strong drive loops unrolled
// into step objects, one loop iteration per step() call.
//
// A drive object owns exactly the loop-local state of a search (the
// consecutive-failure streak, the restart count) and borrows everything
// else (view, searcher, rng, budgets). Stepping a drive to completion is
// the runner's closed loop: run_weak/run_strong and their tolerant
// variants (search/runner.cpp) are implemented on top of these, so this
// header is the tree's single search loop body.
//
// Everything is defined inline: step() sits on the per-probe hot path of
// every search in the tree, and an out-of-line definition costs a call
// per probe — measurably so on cache-resident graphs, where the probe
// itself is a handful of loads.
//
// Lifetime: the borrowed view, searcher, rng, and budgets must outlive the
// drive. One drive serves one search; construct a fresh one per query.
#pragma once

#include "base/check.hpp"
#include "search/runner.hpp"

namespace sfs::search {

namespace detail {

inline SearchResult finish_result(const LocalView& view, bool budget_hit,
                                  bool gave_up, std::size_t restarts,
                                  bool abandoned) {
  SearchResult r;
  r.found = view.target_found();
  r.requests = view.requests();
  r.raw_requests = view.raw_requests();
  r.failed_requests = view.failed_requests();
  r.budget_exhausted = budget_hit;
  r.gave_up = gave_up;
  r.restarts = restarts;
  r.abandoned = abandoned;
  if (r.found) {
    const auto path = view.discovery_path();
    r.path_length = path.empty() ? 0 : path.size() - 1;
  }
  return r;
}

}  // namespace detail

/// Weak-model drive. The constructor performs searcher.start(); each
/// step() runs one iteration of the drive loop (one policy decision + one
/// probe, or a termination check). step() returns false once the search
/// has finished; result() is then valid.
class WeakDrive {
 public:
  WeakDrive(LocalView& view, WeakSearcher& searcher, rng::Rng& rng,
            const RunBudget& budget, const RetryBudget& retry)
      : view_(&view),
        searcher_(&searcher),
        rng_(&rng),
        budget_(&budget),
        retry_(&retry) {
    searcher_->start(*view_, *rng_);
  }

  /// Advances one iteration. Returns true while the search is running.
  /// Calling step() after completion is a checked error.
  ///
  /// The branch order mirrors the closed loop this replaced exactly:
  /// termination checks first (success, then budgets), then one policy
  /// decision, then one probe whose failure is absorbed by the retry
  /// budget — so stepping to completion makes the same calls in the same
  /// order and consumes the same RNG draws.
  bool step() {
    SFS_REQUIRE(!done_, "WeakDrive::step called after completion");
    if (view_->target_found()) {
      result_ = detail::finish_result(*view_, false, false, restarts_, false);
      done_ = true;
      return false;
    }
    if (view_->requests() >= budget_->max_requests ||
        view_->raw_requests() >= budget_->max_raw_requests) {
      result_ = detail::finish_result(*view_, /*budget_hit=*/true, false,
                                      restarts_, false);
      done_ = true;
      return false;
    }
    const auto req = searcher_->next(*view_, *rng_);
    if (!req) {
      result_ = detail::finish_result(*view_, false, /*gave_up=*/true,
                                      restarts_, false);
      done_ = true;
      return false;
    }
    const std::size_t failures_before = view_->failed_requests();
    const graph::VertexId revealed = view_->request_edge(*req);
    if (view_->failed_requests() != failures_before) {
      // Stranded probe: the policy never observes it (the view already
      // marked the link dead). Too many in a row -> restart the policy on
      // the retained knowledge; out of restarts -> abandon.
      if (++consecutive_failures_ > retry_->max_consecutive_failures) {
        if (restarts_ >= retry_->max_restarts) {
          result_ = detail::finish_result(*view_, false, false, restarts_,
                                          /*abandoned=*/true);
          done_ = true;
          return false;
        }
        ++restarts_;
        consecutive_failures_ = 0;
        searcher_->start(*view_, *rng_);
      }
      return true;
    }
    consecutive_failures_ = 0;
    searcher_->observe(*view_, *req, revealed);
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return done_; }

  /// The finished search's result; a checked error before done().
  [[nodiscard]] const SearchResult& result() const {
    SFS_REQUIRE(done_, "WeakDrive::result before the search finished");
    return result_;
  }

 private:
  LocalView* view_;
  WeakSearcher* searcher_;
  rng::Rng* rng_;
  const RunBudget* budget_;
  const RetryBudget* retry_;
  std::size_t consecutive_failures_ = 0;
  std::size_t restarts_ = 0;
  bool done_ = false;
  SearchResult result_;
};

/// Strong-model drive; same contract as WeakDrive with vertex probes.
class StrongDrive {
 public:
  StrongDrive(LocalView& view, StrongSearcher& searcher, rng::Rng& rng,
              const RunBudget& budget, const RetryBudget& retry)
      : view_(&view),
        searcher_(&searcher),
        rng_(&rng),
        budget_(&budget),
        retry_(&retry) {
    searcher_->start(*view_, *rng_);
  }

  bool step() {
    SFS_REQUIRE(!done_, "StrongDrive::step called after completion");
    if (view_->target_found()) {
      result_ = detail::finish_result(*view_, false, false, restarts_, false);
      done_ = true;
      return false;
    }
    if (view_->requests() >= budget_->max_requests ||
        view_->raw_requests() >= budget_->max_raw_requests) {
      result_ = detail::finish_result(*view_, /*budget_hit=*/true, false,
                                      restarts_, false);
      done_ = true;
      return false;
    }
    const auto req = searcher_->next(*view_, *rng_);
    if (!req) {
      result_ = detail::finish_result(*view_, false, /*gave_up=*/true,
                                      restarts_, false);
      done_ = true;
      return false;
    }
    const std::size_t failures_before = view_->failed_requests();
    const auto neighbors = view_->request_vertex_span(*req);
    if (view_->failed_requests() != failures_before) {
      if (++consecutive_failures_ > retry_->max_consecutive_failures) {
        if (restarts_ >= retry_->max_restarts) {
          result_ = detail::finish_result(*view_, false, false, restarts_,
                                          /*abandoned=*/true);
          done_ = true;
          return false;
        }
        ++restarts_;
        consecutive_failures_ = 0;
        searcher_->start(*view_, *rng_);
      }
      return true;
    }
    consecutive_failures_ = 0;
    searcher_->observe(*view_, *req, neighbors);
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return done_; }

  [[nodiscard]] const SearchResult& result() const {
    SFS_REQUIRE(done_, "StrongDrive::result before the search finished");
    return result_;
  }

 private:
  LocalView* view_;
  StrongSearcher* searcher_;
  rng::Rng* rng_;
  const RunBudget* budget_;
  const RetryBudget* retry_;
  std::size_t consecutive_failures_ = 0;
  std::size_t restarts_ = 0;
  bool done_ = false;
  SearchResult result_;
};

}  // namespace sfs::search
