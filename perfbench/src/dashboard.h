// The operator's dashboard refresh, shared by every workload: a RANK of the
// fleet, a TIMELINE of the top vehicle, a COMOVE of that vehicle's latest
// alarm (or, while it has none, a TIMELINE of the runner-up) and a STATS
// scrape, all over one wire connection. While frames stream the scrape is
// left out: a STATS snapshot taken while histograms are being recorded can
// count one observation more in a bucket than in the total, and the
// client's decoder then rejects the whole scrape as corrupt.
#ifndef NAVARCHOS_PERFBENCH_DASHBOARD_H_
#define NAVARCHOS_PERFBENCH_DASHBOARD_H_

#include <cstdint>
#include <vector>

#include "history/history_service.h"
#include "net/ingest_client.h"
#include "trace.h"
#include "util/status.h"

namespace navarchos::perfbench {

/// Vehicles a dashboard RANK lists.
inline constexpr std::uint32_t kRankLimit = 10;
/// Newest records a dashboard TIMELINE shows.
inline constexpr std::uint32_t kTimelineRecords = 256;

/// What the refreshes of one run measured.
struct DashboardTimes {
  std::vector<double> refresh_us;  ///< Whole refreshes over the wire.
  std::vector<double> scrape_us;   ///< The STATS part alone.
  /// Traced runs only: the same three queries answered in process.
  std::vector<double> rank_us;
  std::vector<double> timeline_us;
  std::vector<double> comove_us;
  std::size_t snapshot_bytes = 0;  ///< Encoded size of the last scrape.
  std::uint64_t refreshes = 0;
  std::uint64_t comoves = 0;  ///< Refreshes whose top vehicle had an alarm.
};

/// Runs one refresh over `client`, with the STATS scrape when `scrape`.
/// With `spans` set (traced runs) it also times the same RANK/TIMELINE/
/// COMOVE against `history` in process and records spans keyed by `key`.
util::Status RefreshDashboard(net::IngestClient* client,
                              history::HistoryService* history, bool scrape,
                              SpanLog* spans, std::uint64_t key,
                              DashboardTimes* times);

}  // namespace navarchos::perfbench

#endif  // NAVARCHOS_PERFBENCH_DASHBOARD_H_
