#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>

#include "bench_support/workload.h"
#include "datagen/milan_like.h"
#include "datagen/tpcds_like.h"
#include "engine/aggregation.h"
#include "engine/hash_join.h"
#include "engine/plan.h"
#include "engine/state_batch.h"
#include "reference.h"
#include "sketch/moment_sketch.h"
#include "sudaf/rewriter.h"
#include "sudaf/sudaf.h"

namespace perfbench {
namespace {

using sudaf::Catalog;
using sudaf::ExecMode;
using sudaf::ExecOptions;
using sudaf::QueryResult;
using sudaf::Result;
using sudaf::SessionOptions;
using sudaf::Status;
using sudaf::SudafSession;
using sudaf::Table;

constexpr int kSetups = 5;  // set-ups before and after a timed phase
constexpr int kSketchOrder = 10;  // moments-sketch order of the quantiles
constexpr int kQm2Copies = 10;  // explore: copies of each QM2 query per round

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  rng.Next();
  return rng.Next();
}

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Require(const Status& st, const char* what) {
  if (!st.ok()) {
    std::cerr << what << ": " << st.ToString() << "\n";
    std::exit(1);
  }
}

// --- Approximate quantiles with a timed terminating function --------------

std::atomic<bool> g_time_solver{false};
std::atomic<int64_t> g_solver_ns{0};

// Registers approx_median / approx_first_quantile / approx_third_quantile
// as native UDAFs whose MomentSolver terminate is wrapped in a timer that
// only runs while g_time_solver is set.
void RegisterQuantiles(SudafSession* session) {
  const std::pair<const char*, double> kQuantiles[] = {
      {"approx_median", 0.5},
      {"approx_first_quantile", 0.25},
      {"approx_third_quantile", 0.75}};
  for (const auto& [name, phi] : kQuantiles) {
    sudaf::NativeUdaf udaf =
        sudaf::MakeApproxQuantileUdaf(name, phi, kSketchOrder);
    auto solve = udaf.terminate;
    udaf.terminate =
        [solve](const std::vector<double>& states) -> Result<double> {
      if (!g_time_solver.load(std::memory_order_relaxed)) return solve(states);
      auto t0 = std::chrono::steady_clock::now();
      Result<double> r = solve(states);
      g_solver_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count(),
          std::memory_order_relaxed);
      return r;
    };
    Require(session->library().DefineNative(std::move(udaf)),
            "registering quantile UDAFs");
  }
}

double PhiOf(const std::string& agg) {
  if (agg == "approx_median") return 0.5;
  if (agg == "approx_first_quantile") return 0.25;
  if (agg == "approx_third_quantile") return 0.75;
  return -1;
}

// --- Per-layer probe ------------------------------------------------------

// Replays one query cold through the public entry point of every layer —
// ParseSql, RewriteQuery, PlanQuery, FilterAndJoin, GatherColumns,
// BuildGroups, ComputeStateBatch, AssembleRewrittenResult — and records how
// long each call took. The replay computes every state the rewrite lists,
// as a scan of the query would.
class LayerProbe {
 public:
  LayerProbe(const Catalog* catalog, const sudaf::UdafLibrary* library,
             ExecOptions exec, LayerSamples* samples)
      : catalog_(catalog), library_(library), exec_(exec), out_(samples) {}

  void Probe(const std::string& sql) const;

 private:
  const Catalog* catalog_;
  const sudaf::UdafLibrary* library_;
  ExecOptions exec_;
  LayerSamples* out_;
};

void LayerProbe::Probe(const std::string& sql) const {
  double t0 = NowMs();
  Result<sudaf::ParsedSql> parsed = sudaf::ParseSql(sql);
  double t1 = NowMs();
  if (!parsed.ok()) return;
  const sudaf::SelectStatement& stmt = *parsed->select;
  Result<sudaf::RewrittenQuery> rewritten = sudaf::RewriteQuery(stmt, *library_);
  double t2 = NowMs();
  if (!rewritten.ok()) return;
  const std::vector<sudaf::AggStateDef>& states = rewritten->form.states;
  out_->Add("sql.parse_us", (t1 - t0) * 1e3);
  out_->Add("rewriter.rewrite_us", (t2 - t1) * 1e3);
  out_->Add("rewriter.states_per_query", static_cast<double>(states.size()));

  Result<sudaf::QueryPlan> plan = sudaf::PlanQuery(stmt, *catalog_);
  double t3 = NowMs();
  if (!plan.ok()) return;
  Result<sudaf::JoinedRows> joined = sudaf::FilterAndJoin(*plan, exec_);
  double t4 = NowMs();
  if (!joined.ok()) return;

  std::vector<std::string> needed;
  std::set<std::string> seen;
  auto add = [&](const std::vector<std::string>& names) {
    for (const std::string& n : names) {
      if (n != "*" && seen.insert(n).second) needed.push_back(n);
    }
  };
  add(stmt.group_by);
  for (const sudaf::SelectItem& item : stmt.items) {
    std::vector<std::string> cols;
    item.expr->CollectColumns(&cols);
    add(cols);
  }
  for (const sudaf::AggStateDef& s : states) {
    std::vector<std::string> cols;
    if (s.input != nullptr) s.input->CollectColumns(&cols);
    add(cols);
  }
  sudaf::PreparedInput input;
  Result<std::unique_ptr<Table>> frame =
      sudaf::GatherColumns(*plan, *joined, needed, exec_);
  double t5 = NowMs();
  if (!frame.ok()) return;
  input.frame = std::move(*frame);
  input.num_input_rows = joined->num_tuples;
  if (!sudaf::BuildGroups(stmt.group_by, &input, exec_).ok()) return;
  double t6 = NowMs();

  std::vector<sudaf::StateBatchRequest> requests;
  for (const sudaf::AggStateDef& s : states) {
    requests.push_back(
        {s.op, s.op == sudaf::AggOp::kCount ? nullptr : s.input.get()});
  }
  const Table* frame_table = input.frame.get();
  sudaf::ColumnResolver resolver =
      [frame_table](const std::string& name) -> Result<const sudaf::Column*> {
    return frame_table->GetColumn(name);
  };
  sudaf::StateBatchStats bstats;
  Result<std::vector<std::vector<double>>> values = sudaf::ComputeStateBatch(
      requests, resolver, input.group_ids, input.num_groups, exec_, &bstats);
  double t7 = NowMs();
  if (!values.ok()) return;
  const int64_t solver_before = g_solver_ns.load(std::memory_order_relaxed);
  Result<std::unique_ptr<Table>> result = sudaf::AssembleRewrittenResult(
      *rewritten, stmt, *input.group_keys, input.num_groups, *values);
  double t8 = NowMs();
  const int64_t solver_ns =
      g_solver_ns.load(std::memory_order_relaxed) - solver_before;

  int64_t rows_in = 0;
  for (const Table* t : plan->tables) rows_in += t->num_rows();
  out_->Add("executor.plan_us", (t3 - t2) * 1e3);
  out_->Add("hash_join.filter_join_ms", t4 - t3);
  out_->Add("executor.rows_in", static_cast<double>(rows_in));
  out_->Add("executor.rows_selected", static_cast<double>(joined->num_tuples));
  out_->Add("executor.gather_ms", t5 - t4);
  out_->Add("executor.group_ms", t6 - t5);
  out_->Add("state_batch.fused_ms", t7 - t6);
  out_->Add("state_batch.channels", bstats.num_channels);
  out_->Add("state_batch.shared_slots", bstats.num_shared_slots);
  out_->Add("state_batch.threads_used", bstats.threads_used);
  out_->Add("rewriter.assemble_ms", t8 - t7);
  out_->Add("rewriter.groups_terminated", input.num_groups);
  if (result.ok()) {
    out_->Add("rewriter.rows_returned", static_cast<double>((*result)->num_rows()));
  }
  if (solver_ns > 0) out_->Add("sketch.solve_ms", solver_ns * 1e-6);
}

// --- Phases -----------------------------------------------------------------

// One measured stretch of a workload.
struct Phase {
  std::vector<double> latency_ms;  // one per query
  double timed_ms = 0;  // time spent in the workload's own operations
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  double cpu_s = 0;
  double wall_s = 0;
};

// What a phase records besides latencies: per-query ExecStats (traced
// phase) and the layer replay (probe phase). Both may be null.
struct PhaseCtx {
  LayerSamples* samples = nullptr;
  const LayerProbe* probe = nullptr;

  // Whether a single-client phase that started at `wall0` runs another
  // round: until `seconds` of the workload's own operations have elapsed,
  // or of wall time when replays (which are not timed) fill the phase.
  bool Open(const Phase& ph, double wall0, double seconds) const;
};

bool PhaseCtx::Open(const Phase& ph, double wall0, double seconds) const {
  const double elapsed = probe != nullptr ? NowMs() - wall0 : ph.timed_ms;
  return elapsed < seconds * 1e3;
}

void RecordStats(const sudaf::ExecStats& st, LayerSamples* samples) {
  if (samples == nullptr) return;
  samples->Add("cache.probe_us", st.probe_ms * 1e3);
  samples->Add("states.requested", st.num_states);
  samples->Add("states.from_cache", st.states_from_cache);
  samples->Add("executor.scans", st.scanned_base_data ? 1 : 0);
}

// Runs one query of a single-client phase through SudafSession::Execute:
// times it, counts it as attempted (and failed on an error status), and
// records its ExecStats in a traced phase.
Result<QueryResult> TimedQuery(SudafSession* session, const std::string& sql,
                               const PhaseCtx& ctx, Phase* ph,
                               Complaints* complaints) {
  double t0 = NowMs();
  Result<QueryResult> r = session->Execute(sql, ExecMode::kSudafShare);
  const double ms = NowMs() - t0;
  ph->timed_ms += ms;
  ph->latency_ms.push_back(ms);
  ++ph->attempted;
  if (r.ok()) {
    RecordStats(r->stats, ctx.samples);
  } else {
    ++ph->failed;
    complaints->Report(sql + ": " + r.status().ToString());
  }
  return r;
}

double ValueAt(const Table& t, int col, int64_t row) {
  return t.column(col).GetNumeric(row);
}

// The program-side counters a traced phase reads at its start and end.
struct Counters {
  sudaf::StateCache::Counters cache;
  double refresh_ms = 0;
  sudaf::MetricsSnapshot service;
  int64_t wal_bytes = 0;
  int64_t snapshots = 0;
  int64_t snapshot_file_bytes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // The percentile query_tail_ms reports.
  virtual double tail_quantile() const = 0;
  // Builds the data, the session (and service) from scratch; `traced`
  // turns SessionOptions::collect_traces on.
  virtual void Setup(bool traced) = 0;
  virtual void Teardown() = 0;
  // Runs whole rounds until `seconds` of the phase have elapsed, then
  // checks every answer of the phase.
  virtual Phase Run(double seconds, const PhaseCtx& ctx) = 0;
  virtual SudafSession* session() = 0;
  virtual sudaf::QueryService* service() { return nullptr; }
  // Execution options the layer replay should use (the workload's own).
  virtual ExecOptions probe_exec() const { return ExecOptions{}; }

  Counters Snap() {
    Counters c;
    SudafSession* s = session();
    c.cache = s->cache().counters();
    c.refresh_ms = s->metrics().Snapshot().dcounter("sudaf.phase.refresh_ms");
    if (service() != nullptr) c.service = service()->metrics().Snapshot();
    if (sudaf::CachePersistence* p = s->cache_persistence()) {
      c.wal_bytes = p->wal_bytes();
      c.snapshots = p->snapshots_written();
      std::error_code ec;
      auto size = std::filesystem::file_size(p->snapshot_path(), ec);
      if (!ec) c.snapshot_file_bytes = static_cast<int64_t>(size);
    }
    return c;
  }
};

// --- explore ------------------------------------------------------------------

// The paper's Fig 10 exploratory session over query models 1, 2 and 3: a
// seeded random order of the round's (model, aggregate) queries, on one
// serial share-mode session whose cache holds the whole working set.
class Explore : public Workload {
 public:
  explicit Explore(uint64_t seed) : seed_(seed) {
    for (int model = 1; model <= 3; ++model) {
      for (const std::string& agg : sudaf::bench::Figure10Aggregates()) {
        // Left out, because they fail on some seeds and not others (see
        // README.md): approximate quantiles beyond QM1 (on QM2's
        // per-square groups the moments-sketch estimates miss the
        // rank-error bound; on QM3's sparse groups the solver also fails
        // outright) and QM3's stddev/skewness/kurtosis (power-sum
        // cancellation in groups of a few equal or close values: NaN
        // stddev, kurtosis off by 1e-5).
        if (model != 1 && PhiOf(agg) > 0) continue;
        if (model == 3 &&
            (agg == "stddev" || agg == "skewness" || agg == "kurtosis")) {
          continue;
        }
        // Fig 10 itself is a QM2 session, so QM2 weighs ten times as much
        // as QM1 and QM3 in a round. That also puts the median near the
        // middle of the QM2 hits, where it follows the host's speed drift
        // less than at their low end (see README.md).
        for (int copy = 0; copy < (model == 2 ? kQm2Copies : 1); ++copy) {
          queries_.push_back({model, agg, sudaf::bench::QueryModel(model, agg)});
        }
      }
    }
  }

  double tail_quantile() const override { return 0.98; }

  void Setup(bool traced) override {
    Teardown();
    catalog_ = std::make_unique<Catalog>();
    sudaf::MilanOptions milan;
    milan.num_rows = 400'000;
    milan.num_squares = 10'000;
    milan.seed = SubSeed(seed_, 1);
    catalog_->PutTable("milan_data", sudaf::GenerateMilanData(milan));
    sudaf::TpcdsOptions tpcds;
    tpcds.num_sales = 250'000;
    tpcds.seed = SubSeed(seed_, 2);
    Require(sudaf::GenerateTpcdsData(tpcds, catalog_.get()), "tpcds data");
    session_ = std::make_unique<SudafSession>(
        catalog_.get(), SessionOptions{}.set_collect_traces(traced));
    RegisterQuantiles(session_.get());
  }

  void Teardown() override {
    session_.reset();
    catalog_.reset();
  }

  SudafSession* session() override { return session_.get(); }

  Phase Run(double seconds, const PhaseCtx& ctx) override {
    Phase ph;
    Rng rng(SubSeed(seed_, 3));
    // Distinct answers per query, by fingerprint: a query answered from a
    // shared representative may differ in the last bits from a cold one.
    std::vector<std::map<uint64_t, std::unique_ptr<Table>>> answers(
        queries_.size());
    const double cpu0 = CpuSeconds();
    const double wall0 = NowMs();
    std::vector<size_t> order(queries_.size());
    while (ctx.Open(ph, wall0, seconds)) {
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.Shuffle(&order);
      for (size_t qi : order) {
        Result<QueryResult> r = TimedQuery(session_.get(), queries_[qi].sql,
                                           ctx, &ph, &complaints_);
        if (!r.ok()) continue;
        uint64_t fp = Fingerprint(*r->table);
        if (answers[qi].count(fp) == 0) answers[qi][fp] = std::move(r->table);
        if (ctx.probe != nullptr) ctx.probe->Probe(queries_[qi].sql);
      }
    }
    ph.wall_s = (NowMs() - wall0) / 1e3;
    ph.cpu_s = CpuSeconds() - cpu0;
    ph.correct = Check(answers);
    return ph;
  }

 private:
  struct Query {
    int model;
    std::string agg;
    std::string sql;
  };

  // Expected answer of one query model: output keys in order, their group
  // statistics per aggregated column, and sorted values for quantiles.
  struct Expected {
    std::vector<std::string> keys;                   // QM3 keys
    std::vector<int64_t> int_keys;                   // QM2 keys
    std::vector<std::vector<GroupStats>> stats;      // [column][row]
    std::vector<std::vector<std::vector<double>>> sorted;  // [column][row]
  };

  const sudaf::Column& Col(const std::string& table,
                           const std::string& column) const {
    Result<Table*> t = catalog_->GetTable(table);
    SUDAF_CHECK(t.ok());
    Result<const sudaf::Column*> c = (*t)->GetColumn(column);
    SUDAF_CHECK(c.ok());
    return **c;
  }

  Expected ExpectMilan(int model) const {
    const sudaf::Column& sq = Col("milan_data", "square_id");
    const std::vector<double>& traffic =
        Col("milan_data", "internet_traffic").doubles();
    const int64_t n = static_cast<int64_t>(traffic.size());
    Expected e;
    if (model == 1) {
      e.stats.push_back(ComputeGroupStats(
          n, 1, HardwareThreads(), [](int64_t) { return true; },
          [](int64_t) { return 0; }, [&](int64_t r) { return traffic[r]; }));
      std::vector<double> all = traffic;
      std::sort(all.begin(), all.end());
      e.sorted.push_back({std::move(all)});
      return e;
    }
    int64_t max_sq = 0;
    for (int64_t v : sq.ints()) max_sq = std::max(max_sq, v);
    std::vector<GroupStats> by_sq = ComputeGroupStats(
        n, static_cast<int32_t>(max_sq + 1), HardwareThreads(),
        [](int64_t) { return true; },
        [&](int64_t r) { return static_cast<int32_t>(sq.ints()[r]); },
        [&](int64_t r) { return traffic[r]; });
    std::vector<GroupStats> rows;
    for (int64_t k = 0; k <= max_sq && e.int_keys.size() < 20; ++k) {
      if (by_sq[k].n == 0) continue;
      e.int_keys.push_back(k);
      rows.push_back(by_sq[k]);
    }
    std::vector<std::vector<double>> values(e.int_keys.size());
    for (int64_t r = 0; r < n; ++r) {
      auto it = std::lower_bound(e.int_keys.begin(), e.int_keys.end(),
                                 sq.ints()[r]);
      if (it != e.int_keys.end() && *it == sq.ints()[r]) {
        values[it - e.int_keys.begin()].push_back(traffic[r]);
      }
    }
    for (auto& v : values) std::sort(v.begin(), v.end());
    e.stats.push_back(std::move(rows));
    e.sorted.push_back(std::move(values));
    return e;
  }

  // QM3: TPC-DS query 7's five-way join and filters, evaluated with hash
  // maps over the generated tables.
  Expected ExpectTpcds() const {
    auto index = [&](const std::string& table, const std::string& key) {
      std::map<int64_t, int64_t> m;
      const std::vector<int64_t>& keys = Col(table, key).ints();
      for (size_t r = 0; r < keys.size(); ++r) {
        SUDAF_CHECK_MSG(m.emplace(keys[r], r).second, "duplicate key " + key);
      }
      return m;
    };
    auto demo = index("customer_demographics", "cd_demo_sk");
    auto date = index("date_dim", "d_date_sk");
    auto item = index("item", "i_item_sk");
    auto promo = index("promotion", "p_promo_sk");
    const sudaf::Column& gender = Col("customer_demographics", "cd_gender");
    const sudaf::Column& marital =
        Col("customer_demographics", "cd_marital_status");
    const sudaf::Column& edu = Col("customer_demographics", "cd_education_status");
    const sudaf::Column& year = Col("date_dim", "d_year");
    const sudaf::Column& item_id = Col("item", "i_item_id");
    const sudaf::Column& email = Col("promotion", "p_channel_email");
    const sudaf::Column& event = Col("promotion", "p_channel_event");
    const std::vector<int64_t>& s_date = Col("store_sales", "ss_sold_date_sk").ints();
    const std::vector<int64_t>& s_item = Col("store_sales", "ss_item_sk").ints();
    const std::vector<int64_t>& s_demo = Col("store_sales", "ss_cdemo_sk").ints();
    const std::vector<int64_t>& s_promo = Col("store_sales", "ss_promo_sk").ints();
    const int64_t n = static_cast<int64_t>(s_date.size());

    std::vector<std::string> row_key(n);
    std::vector<char> keep(n, 0);
    std::set<std::string> key_set;
    for (int64_t r = 0; r < n; ++r) {
      auto d = date.find(s_date[r]);
      auto i = item.find(s_item[r]);
      auto c = demo.find(s_demo[r]);
      auto p = promo.find(s_promo[r]);
      if (d == date.end() || i == item.end() || c == demo.end() ||
          p == promo.end()) {
        continue;
      }
      if (year.GetInt64(d->second) != 2000) continue;
      if (gender.GetString(c->second) != "M" ||
          marital.GetString(c->second) != "S" ||
          edu.GetString(c->second) != "College") {
        continue;
      }
      if (email.GetString(p->second) != "N" &&
          event.GetString(p->second) != "N") {
        continue;
      }
      keep[r] = 1;
      row_key[r] = item_id.GetString(i->second);
      key_set.insert(row_key[r]);
    }
    std::vector<std::string> all_keys(key_set.begin(), key_set.end());
    std::map<std::string, int32_t> gid;
    for (size_t g = 0; g < all_keys.size(); ++g) gid[all_keys[g]] = g;
    std::vector<int32_t> row_gid(n, 0);
    for (int64_t r = 0; r < n; ++r) {
      if (keep[r]) row_gid[r] = gid[row_key[r]];
    }
    Expected e;
    const size_t limit = std::min<size_t>(100, all_keys.size());
    e.keys.assign(all_keys.begin(), all_keys.begin() + limit);
    for (const char* column :
         {"ss_quantity", "ss_list_price", "ss_coupon_amt", "ss_sales_price"}) {
      const sudaf::Column& col = Col("store_sales", column);
      std::vector<GroupStats> g = ComputeGroupStats(
          n, static_cast<int32_t>(all_keys.size()), 1,
          [&](int64_t r) { return keep[r] != 0; },
          [&](int64_t r) { return row_gid[r]; },
          [&](int64_t r) { return col.GetNumeric(r); });
      g.resize(limit);
      e.stats.push_back(std::move(g));
    }
    return e;
  }

  bool Check(
      const std::vector<std::map<uint64_t, std::unique_ptr<Table>>>& answers) {
    Expected expected[3] = {ExpectMilan(1), ExpectMilan(2), ExpectTpcds()};
    bool ok = true;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      const Query& q = queries_[qi];
      const Expected& e = expected[q.model - 1];
      for (const auto& [fp, table] : answers[qi]) {
        if (!CheckTable(q, e, *table)) ok = false;
      }
    }
    return ok;
  }

  bool CheckTable(const Query& q, const Expected& e, const Table& t) {
    const size_t rows = e.stats[0].size();
    if (t.num_rows() != static_cast<int64_t>(rows)) {
      complaints_.Report(q.sql + ": row count " + std::to_string(t.num_rows()) +
                         " want " + std::to_string(rows));
      return false;
    }
    const int first = q.model == 1 ? 0 : 1;
    const double phi = PhiOf(q.agg);
    for (size_t r = 0; r < rows; ++r) {
      if (q.model == 2 && t.column(0).GetInt64(r) != e.int_keys[r]) {
        complaints_.Report(q.sql + ": group key mismatch");
        return false;
      }
      if (q.model == 3 && t.column(0).GetString(r) != e.keys[r]) {
        complaints_.Report(q.sql + ": group key mismatch");
        return false;
      }
      for (size_t c = 0; c < e.stats.size(); ++c) {
        const double got = ValueAt(t, first + static_cast<int>(c), r);
        bool match;
        if (phi > 0) {
          match = RankError(e.sorted[c][r], got, phi) <= kMaxRankError;
        } else {
          match = Matches(q.agg, e.stats[c][r], got);
        }
        if (!match) {
          complaints_.Report(q.sql + ": row " + std::to_string(r) + " got " +
                             std::to_string(got) + " want " +
                             std::to_string(ReferenceValue(q.agg, e.stats[c][r])));
          return false;
        }
      }
    }
    return true;
  }

  uint64_t seed_;
  std::vector<Query> queries_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<SudafSession> session_;
  Complaints complaints_;
};

// --- scan -----------------------------------------------------------------

// Cold analytic queries: every query filters a k-window whose position
// rotates, so its data signature is new and nothing is served from the
// cache. The mix crosses selectivity, group count and state count; each
// round also runs one moment query over epoch-second timestamps.
class Scan : public Workload {
 public:
  explicit Scan(uint64_t seed) : seed_(seed) {}

  double tail_quantile() const override { return 0.90; }

  // Morsel-parallel on half the cores. A pass that needs every core waits
  // for the slowest one: on a shared 4-vCPU host, ten 4-worker runs of this
  // workload spread by 0.31 of their median (quartiles) as the host's load
  // drifted, where ten 2-worker runs spread by 0.05.
  ExecOptions probe_exec() const override {
    ExecOptions exec;
    exec.parallel = true;
    exec.num_threads = std::max(1, HardwareThreads() / 2);
    return exec;
  }

  void Setup(bool traced) override {
    Teardown();
    catalog_ = std::make_unique<Catalog>();
    catalog_->PutTable("scan_facts", MakeFacts(SubSeed(seed_, 1)));
    // The epoch table does not depend on the seed: its moment queries fail
    // the reference check on every run alike (power-sum cancellation).
    catalog_->PutTable("scan_events", MakeEvents(kEventsSeed));
    facts_ = *catalog_->GetTable("scan_facts");
    events_ = *catalog_->GetTable("scan_events");
    session_ = std::make_unique<SudafSession>(
        catalog_.get(), SessionOptions{}
                            .set_exec(probe_exec())
                            .set_cache_max_bytes(kCacheBytes)
                            .set_collect_traces(traced));
  }

  void Teardown() override {
    session_.reset();
    catalog_.reset();
  }

  SudafSession* session() override { return session_.get(); }

  Phase Run(double seconds, const PhaseCtx& ctx) override {
    Phase ph;
    Rng rng(SubSeed(seed_, 3));
    // Window starts advance by a prime stride per (selectivity, grouping)
    // class, so no window repeats within a run.
    std::map<int64_t, int64_t> next_start;
    const double cpu0 = CpuSeconds();
    const double wall0 = NowMs();
    int64_t round = 0;
    while (ctx.Open(ph, wall0, seconds)) {
      std::vector<Query> qs;
      for (int64_t width : kWidths) {
        for (const char* group : {"g100", "g10k"}) {
          for (size_t set = 0; set < kStateSets.size(); ++set) {
            const int64_t span = kKeyRange - width + 1;
            const int64_t cls = width * 2 + (std::string(group) == "g100");
            auto it = next_start.try_emplace(cls, rng.Below(span)).first;
            const int64_t start = it->second;
            it->second = (it->second + 7919) % span;
            qs.push_back(FactsQuery(group, set, start, width));
          }
        }
      }
      rng.Shuffle(&qs);
      // One epoch query per round, its column and window fixed by the round
      // index alone. 31 equally weighted queries put the median in the
      // middle of one query type's samples, not on the edge between two.
      const int64_t ew = kKeyRange / 2;
      const int64_t estart = (round * 7919) % (kKeyRange - ew + 1);
      qs.push_back(EventsQuery(round % 2 == 0 ? "ts_day" : "ts_hour", estart, ew));
      for (const Query& q : qs) {
        Result<QueryResult> r =
            TimedQuery(session_.get(), q.sql, ctx, &ph, &complaints_);
        if (!r.ok()) continue;
        if (!CheckAnswer(q, *r->table)) {
          if (q.known_fault) {
            ++ph.failed;
          } else {
            ph.correct = false;
          }
        }
        if (ctx.probe != nullptr) ctx.probe->Probe(q.sql);
      }
      ++round;
    }
    ph.wall_s = (NowMs() - wall0) / 1e3;
    ph.cpu_s = CpuSeconds() - cpu0;
    return ph;
  }

 private:
  static constexpr int64_t kFactsRows = 3'000'000;
  static constexpr int64_t kEventsRows = 1'000'000;
  static constexpr int64_t kKeyRange = 1'000'000;
  static constexpr int64_t kCacheBytes = 16 << 20;
  static constexpr uint64_t kEventsSeed = 0xe90c5ULL;
  static constexpr int64_t kWidths[3] = {kKeyRange / 10, kKeyRange / 2,
                                         kKeyRange * 9 / 10};
  inline static const std::vector<std::vector<std::string>> kStateSets = {
      {"avg"},
      {"avg", "var"},
      {"gm", "hm"},
      {"var", "skewness", "kurtosis"},
      {"avg", "var", "gm", "hm", "qm", "skewness", "kurtosis"}};

  struct Query {
    std::string sql;
    bool events = false;
    bool known_fault = false;
    std::string group;   // grouping column
    std::string column;  // aggregated column
    std::vector<std::string> aggs;
    int64_t start = 0;
    int64_t width = 0;
  };

  static std::string Select(const Query& q) {
    std::string sql = "SELECT " + q.group;
    for (size_t i = 0; i < q.aggs.size(); ++i) {
      sql += ", " + q.aggs[i] + "(" + q.column + ") a" + std::to_string(i);
    }
    sql += std::string(" FROM ") + (q.events ? "scan_events" : "scan_facts") +
           " WHERE k >= " + std::to_string(q.start) + " AND k < " +
           std::to_string(q.start + q.width) + " GROUP BY " + q.group + ";";
    return sql;
  }

  static Query FactsQuery(const std::string& group, size_t set, int64_t start,
                          int64_t width) {
    Query q;
    q.group = group;
    q.column = "x";
    q.aggs = kStateSets[set];
    q.start = start;
    q.width = width;
    q.sql = Select(q);
    return q;
  }

  static Query EventsQuery(const std::string& column, int64_t start,
                           int64_t width) {
    Query q;
    q.events = true;
    q.known_fault = true;
    q.group = "g100";
    q.column = column;
    q.aggs = {"var", "skewness", "kurtosis"};
    q.start = start;
    q.width = width;
    q.sql = Select(q);
    return q;
  }

  static std::unique_ptr<Table> MakeFacts(uint64_t seed) {
    sudaf::Schema schema({{"k", sudaf::DataType::kInt64},
                          {"g100", sudaf::DataType::kInt64},
                          {"g10k", sudaf::DataType::kInt64},
                          {"x", sudaf::DataType::kFloat64}});
    auto t = std::make_unique<Table>(schema);
    t->Reserve(kFactsRows);
    Rng rng(seed);
    for (int64_t r = 0; r < kFactsRows; ++r) {
      t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(kKeyRange)));
      t->column(1).AppendInt64(static_cast<int64_t>(rng.Below(100)));
      t->column(2).AppendInt64(static_cast<int64_t>(rng.Below(10'000)));
      t->column(3).AppendFloat64(rng.LogNormal(2.0, 0.75));
    }
    t->FinishBulkAppend();
    return t;
  }

  // Epoch seconds around 1.7e9 with millisecond resolution, spread over one
  // day (ts_day) and over one hour (ts_hour).
  static std::unique_ptr<Table> MakeEvents(uint64_t seed) {
    sudaf::Schema schema({{"k", sudaf::DataType::kInt64},
                          {"g100", sudaf::DataType::kInt64},
                          {"ts_day", sudaf::DataType::kFloat64},
                          {"ts_hour", sudaf::DataType::kFloat64}});
    auto t = std::make_unique<Table>(schema);
    t->Reserve(kEventsRows);
    Rng rng(seed);
    const double epoch = 1.7e9;
    for (int64_t r = 0; r < kEventsRows; ++r) {
      t->column(0).AppendInt64(static_cast<int64_t>(rng.Below(kKeyRange)));
      t->column(1).AppendInt64(static_cast<int64_t>(rng.Below(100)));
      t->column(2).AppendFloat64(epoch + rng.Below(86'400'000) / 1e3);
      t->column(3).AppendFloat64(epoch + rng.Below(3'600'000) / 1e3);
    }
    t->FinishBulkAppend();
    return t;
  }

  bool CheckAnswer(const Query& q, const Table& t) {
    const Table& data = q.events ? *events_ : *facts_;
    const std::vector<int64_t>& k = data.GetColumn("k").value()->ints();
    const std::vector<int64_t>& g = data.GetColumn(q.group).value()->ints();
    const std::vector<double>& x = data.GetColumn(q.column).value()->doubles();
    const int32_t groups = q.group == "g10k" ? 10'000 : 100;
    const int64_t lo = q.start;
    const int64_t hi = q.start + q.width;
    std::vector<GroupStats> want = ComputeGroupStats(
        data.num_rows(), groups, HardwareThreads(),
        [&](int64_t r) { return k[r] >= lo && k[r] < hi; },
        [&](int64_t r) { return static_cast<int32_t>(g[r]); },
        [&](int64_t r) { return x[r]; });
    int64_t present = 0;
    for (const GroupStats& s : want) present += s.n > 0 ? 1 : 0;
    if (t.num_rows() != present) {
      if (!q.known_fault) complaints_.Report(q.sql + ": wrong row count");
      return false;
    }
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      const int64_t key = t.column(0).GetInt64(r);
      if (key < 0 || key >= groups || want[key].n == 0) {
        if (!q.known_fault) complaints_.Report(q.sql + ": unexpected group");
        return false;
      }
      for (size_t a = 0; a < q.aggs.size(); ++a) {
        const double got = ValueAt(t, 1 + static_cast<int>(a), r);
        if (!Matches(q.aggs[a], want[key], got)) {
          if (!q.known_fault) {
            complaints_.Report(q.sql + ": group " + std::to_string(key) + " " +
                               q.aggs[a] + " got " + std::to_string(got) +
                               " want " +
                               std::to_string(ReferenceValue(q.aggs[a], want[key])));
          }
          return false;
        }
      }
    }
    return true;
  }

  uint64_t seed_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<SudafSession> session_;
  const Table* facts_ = nullptr;
  const Table* events_ = nullptr;
  Complaints complaints_;
};

// --- serve ------------------------------------------------------------------

// Four closed-loop clients on one QueryService with default options. Each
// round every client refreshes the same dashboard over the round's time
// window, in its own order, so same-signature requests coalesce in the
// batching window and repeated states hit the cache.
class Serve : public Workload {
 public:
  explicit Serve(uint64_t seed) : seed_(seed) {}

  double tail_quantile() const override { return 0.98; }

  void Setup(bool traced) override {
    Teardown();
    catalog_ = std::make_unique<Catalog>();
    sudaf::MilanOptions milan;
    milan.num_rows = 2'000'000;
    milan.num_squares = 10'000;
    milan.seed = SubSeed(seed_, 1);
    catalog_->PutTable("milan_data", sudaf::GenerateMilanData(milan));
    session_ = std::make_unique<SudafSession>(
        catalog_.get(), SessionOptions{}
                            .set_cache_max_bytes(kCacheBytes)
                            .set_collect_traces(traced));
    service_ = std::make_unique<sudaf::QueryService>(session_.get());
  }

  void Teardown() override {
    service_.reset();
    session_.reset();
    catalog_.reset();
  }

  SudafSession* session() override { return session_.get(); }
  sudaf::QueryService* service() override { return service_.get(); }

  Phase Run(double seconds, const PhaseCtx& ctx) override {
    struct Client {
      std::vector<double> latency_ms;
      std::map<std::string, std::set<uint64_t>> answers;
      int64_t attempted = 0;
      int64_t failed = 0;
    };
    std::vector<Client> clients(kClients);
    const int64_t base = static_cast<int64_t>(Rng(SubSeed(seed_, 4)).Below(kWindows));
    const double cpu0 = CpuSeconds();
    const double wall0 = NowMs();
    const double deadline = wall0 + seconds * 1e3;
    auto client_loop = [&](int c) {
      Client& me = clients[c];
      Rng rng(SubSeed(seed_, 100 + c));
      for (int64_t round = 0; NowMs() < deadline; ++round) {
        // The leading queries ask for the round's new states; the trailing
        // ones are served from what the leading ones computed.
        auto [leading, trailing] = Dashboard((base + round * 97) % kWindows);
        rng.Shuffle(&leading);
        rng.Shuffle(&trailing);
        leading.insert(leading.end(), trailing.begin(), trailing.end());
        for (const std::string& sql : leading) {
          double t0 = NowMs();
          sudaf::QueryTicket ticket = service_->Submit(sql, ExecMode::kSudafShare);
          Result<QueryResult> r = ticket.Wait();
          me.latency_ms.push_back(NowMs() - t0);
          ++me.attempted;
          if (!r.ok()) {
            ++me.failed;
            complaints_.Report(sql + ": " + r.status().ToString());
            continue;
          }
          RecordStats(r->stats, ctx.samples);
          me.answers[sql].insert(Fingerprint(*r->table));
          if (ctx.probe != nullptr) ctx.probe->Probe(sql);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
    for (std::thread& t : threads) t.join();
    Phase ph;
    ph.wall_s = (NowMs() - wall0) / 1e3;
    ph.cpu_s = CpuSeconds() - cpu0;
    ph.timed_ms = ph.wall_s * 1e3;
    std::map<std::string, std::set<uint64_t>> answers;
    for (Client& c : clients) {
      ph.latency_ms.insert(ph.latency_ms.end(), c.latency_ms.begin(),
                           c.latency_ms.end());
      ph.attempted += c.attempted;
      ph.failed += c.failed;
      for (auto& [sql, fps] : c.answers) answers[sql].insert(fps.begin(), fps.end());
    }
    ph.correct = Check(answers);
    return ph;
  }

 private:
  static constexpr int kClients = 4;
  static constexpr int64_t kWindows = 721;  // window starts 0..720
  static constexpr int64_t kCacheBytes = 8 << 20;

  // The dashboard over time window [start, start + 720): two leading
  // queries (one per data signature) and six trailing ones whose states
  // the leading ones cover.
  static std::pair<std::vector<std::string>, std::vector<std::string>>
  Dashboard(int64_t start) {
    const std::string where = " FROM milan_data WHERE time_interval >= " +
                              std::to_string(start) + " AND time_interval < " +
                              std::to_string(start + 720);
    const std::string by_square =
        " GROUP BY square_id ORDER BY square_id LIMIT 20;";
    const std::string t = "(internet_traffic)";
    auto sq = [&](const std::string& list) {
      return "SELECT square_id, " + list + where + by_square;
    };
    auto all = [&](const std::string& list) {
      return "SELECT " + list + where + ";";
    };
    return {{sq("avg" + t + ", skewness" + t + ", kurtosis" + t),
             all("min" + t + ", max" + t + ", sum" + t)},
            {sq("stddev" + t + ", qm" + t), sq("avg" + t + ", var" + t),
             sq("kurtosis" + t), sq("avg" + t + ", var" + t),
             all("min" + t + ", max" + t), all("sum" + t)}};
  }

  // Every OK answer must be bitwise equal to the same query run solo on a
  // fresh serial session. The solo runs spread over one worker per core.
  bool Check(const std::map<std::string, std::set<uint64_t>>& answers) {
    std::vector<const std::pair<const std::string, std::set<uint64_t>>*> items;
    for (const auto& kv : answers) items.push_back(&kv);
    std::atomic<size_t> next{0};
    std::atomic<bool> ok{true};
    auto worker = [&]() {
      for (size_t i = next++; i < items.size(); i = next++) {
        const auto& [sql, fps] = *items[i];
        SudafSession solo(catalog_.get(),
                          SessionOptions{}.set_collect_traces(false));
        Result<QueryResult> r = solo.Execute(sql, ExecMode::kSudafShare);
        if (!r.ok() || fps.size() != 1 || *fps.begin() != Fingerprint(*r->table)) {
          complaints_.Report(sql + ": answer differs from a solo run");
          ok = false;
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < HardwareThreads(); ++t) threads.emplace_back(worker);
    worker();
    for (std::thread& t : threads) t.join();
    return ok;
  }

  uint64_t seed_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<SudafSession> session_;
  std::unique_ptr<sudaf::QueryService> service_;
  Complaints complaints_;
};

// --- append -----------------------------------------------------------------

// One client alternates Catalog::AppendRows (1% of the base rows) with a
// dashboard over two data signatures whose queries ask for disjoint
// states, on a session with cache persistence on.
class Append : public Workload {
 public:
  Append(uint64_t seed, std::string scratch)
      : seed_(seed), scratch_(std::move(scratch)) {}

  double tail_quantile() const override { return 0.95; }

  void Setup(bool traced) override {
    Teardown();
    catalog_ = std::make_unique<Catalog>();
    Rng rng(SubSeed(seed_, 1));
    catalog_->PutTable("append_facts", MakeRows(&rng, kBaseRows));
    session_ = std::make_unique<SudafSession>(
        catalog_.get(), SessionOptions{}.set_collect_traces(traced));
    store_dir_ = scratch_ + "/append-store-" + std::to_string(getpid()) + "-" +
                 std::to_string(++stores_);
    std::filesystem::remove_all(store_dir_);
    std::filesystem::create_directories(store_dir_);
    Require(session_->EnableCachePersistence(store_dir_), "cache persistence");
  }

  void Teardown() override {
    session_.reset();
    catalog_.reset();
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_);
    store_dir_.clear();
  }

  SudafSession* session() override { return session_.get(); }

  Phase Run(double seconds, const PhaseCtx& ctx) override {
    Phase ph;
    Rng rng(SubSeed(seed_, 5));
    const double cpu0 = CpuSeconds();
    const double wall0 = NowMs();
    for (int64_t round = 0; ctx.Open(ph, wall0, seconds); ++round) {
      std::unique_ptr<Table> delta = MakeRows(&rng, kDeltaRows);
      double t0 = NowMs();
      Status st = catalog_->AppendRows("append_facts", *delta);
      const double append_ms = NowMs() - t0;
      Require(st, "append");
      ph.timed_ms += append_ms;
      if (ctx.samples != nullptr) ctx.samples->Add("catalog.append_ms", append_ms);

      std::vector<const DashQuery*> round_queries;
      for (const auto& pair : kDashboard) {
        const bool swap = rng.Below(2) == 1;
        const DashQuery* first = &pair[swap ? 1 : 0];
        const DashQuery* second = &pair[swap ? 0 : 1];
        // After the append the first query refreshes the set and the second
        // rescans; the repeats are cache hits, which puts the median inside
        // the hit cluster and the p95 inside the rescans.
        round_queries.insert(round_queries.end(),
                             {first, second, first, second, first});
      }
      std::map<const DashQuery*, std::set<uint64_t>> fps;
      std::map<const DashQuery*, std::unique_ptr<Table>> tables;
      for (const DashQuery* q : round_queries) {
        Result<QueryResult> r =
            TimedQuery(session_.get(), q->sql, ctx, &ph, &complaints_);
        if (!r.ok()) continue;
        if (ctx.samples != nullptr && round > 0) {
          ctx.samples->Add("session.full_rescans",
                           r->stats.scanned_base_data ? 1 : 0);
        }
        fps[q].insert(Fingerprint(*r->table));
        tables[q] = std::move(r->table);
        if (ctx.probe != nullptr) ctx.probe->Probe(q->sql);
      }
      if (!CheckRound(fps, tables)) ph.correct = false;
    }
    ph.wall_s = (NowMs() - wall0) / 1e3;
    ph.cpu_s = CpuSeconds() - cpu0;
    return ph;
  }

 private:
  static constexpr int64_t kBaseRows = 2'000'000;
  static constexpr int64_t kDeltaRows = kBaseRows / 100;

  struct DashQuery {
    std::string sql;
    std::vector<std::string> aggs;  // the columns after the group key
    bool by_g;  // signature A (all rows by g), else B (k < 500 by g2)
  };
  // Two data signatures, each with two queries whose states do not overlap.
  inline static const DashQuery kDashboard[2][2] = {
      {{"SELECT g, avg(v), var(v) FROM append_facts GROUP BY g;",
        {"avg", "var"}, true},
       {"SELECT g, gm(v), hm(v) FROM append_facts GROUP BY g;",
        {"gm", "hm"}, true}},
      {{"SELECT g2, min(v), max(v) FROM append_facts WHERE k < 500 "
        "GROUP BY g2;",
        {"min", "max"}, false},
       {"SELECT g2, qm(v), cm(v) FROM append_facts WHERE k < 500 "
        "GROUP BY g2;",
        {"qm", "cm"}, false}}};

  static std::unique_ptr<Table> MakeRows(Rng* rng, int64_t n) {
    sudaf::Schema schema({{"g", sudaf::DataType::kInt64},
                          {"g2", sudaf::DataType::kInt64},
                          {"k", sudaf::DataType::kInt64},
                          {"v", sudaf::DataType::kFloat64}});
    auto t = std::make_unique<Table>(schema);
    t->Reserve(n);
    for (int64_t r = 0; r < n; ++r) {
      t->column(0).AppendInt64(static_cast<int64_t>(rng->Below(1000)));
      t->column(1).AppendInt64(static_cast<int64_t>(rng->Below(50)));
      t->column(2).AppendInt64(static_cast<int64_t>(rng->Below(1000)));
      t->column(3).AppendFloat64(rng->LogNormal(1.5, 0.5));
    }
    t->FinishBulkAppend();
    return t;
  }

  // After every round: each answer is bitwise equal to a cold session over
  // the same table snapshot, and matches the independent reference.
  bool CheckRound(
      const std::map<const DashQuery*, std::set<uint64_t>>& fps,
      const std::map<const DashQuery*, std::unique_ptr<Table>>& tables) {
    bool ok = true;
    // Answers are bit-identical at any thread count, so the cold session
    // may use every core.
    ExecOptions parallel;
    parallel.parallel = true;
    parallel.num_threads = HardwareThreads();
    SudafSession cold(catalog_.get(), SessionOptions{}
                                          .set_exec(parallel)
                                          .set_collect_traces(false));
    for (const auto& [q, set] : fps) {
      Result<QueryResult> r = cold.Execute(q->sql, ExecMode::kSudafShare);
      if (!r.ok() || set.size() != 1 || *set.begin() != Fingerprint(*r->table)) {
        complaints_.Report(q->sql + ": answer differs from a cold session");
        ok = false;
      }
    }
    const Table& data = **catalog_->GetTable("append_facts");
    const std::vector<int64_t>& g = data.GetColumn("g").value()->ints();
    const std::vector<int64_t>& g2 = data.GetColumn("g2").value()->ints();
    const std::vector<int64_t>& k = data.GetColumn("k").value()->ints();
    const std::vector<double>& v = data.GetColumn("v").value()->doubles();
    const int64_t n = data.num_rows();
    std::vector<GroupStats> by_g = ComputeGroupStats(
        n, 1000, HardwareThreads(), [](int64_t) { return true; },
        [&](int64_t r) { return static_cast<int32_t>(g[r]); },
        [&](int64_t r) { return v[r]; });
    std::vector<GroupStats> by_g2 = ComputeGroupStats(
        n, 50, HardwareThreads(), [&](int64_t r) { return k[r] < 500; },
        [&](int64_t r) { return static_cast<int32_t>(g2[r]); },
        [&](int64_t r) { return v[r]; });
    for (const auto& [q, table] : tables) {
      const std::vector<GroupStats>& want = q->by_g ? by_g : by_g2;
      int64_t present = 0;
      for (const GroupStats& s : want) present += s.n > 0 ? 1 : 0;
      bool match = table->num_rows() == present;
      for (int64_t r = 0; match && r < table->num_rows(); ++r) {
        const int64_t key = table->column(0).GetInt64(r);
        match = key >= 0 && key < static_cast<int64_t>(want.size());
        for (size_t a = 0; match && a < q->aggs.size(); ++a) {
          match = Matches(q->aggs[a], want[key],
                          ValueAt(*table, 1 + static_cast<int>(a), r));
        }
      }
      if (!match) {
        complaints_.Report(q->sql + ": answer misses the reference");
        ok = false;
      }
    }
    return ok;
  }

  uint64_t seed_;
  std::string scratch_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<SudafSession> session_;
  std::string store_dir_;
  int stores_ = 0;
  Complaints complaints_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "explore") return std::make_unique<Explore>(o.seed);
  if (o.workload == "scan") return std::make_unique<Scan>(o.seed);
  if (o.workload == "serve") return std::make_unique<Serve>(o.seed);
  if (o.workload == "append") {
    return std::make_unique<Append>(o.seed, o.scratch_dir);
  }
  return nullptr;
}

void EndToEnd(Workload* w, const Options& o, Outcome* out) {
  // Half the set-ups run before the timed phase and half after it, so
  // their median does not hang on one stretch of the host's speed.
  std::vector<double> setup_s;
  auto set_up = [&]() {
    double t0 = NowMs();
    w->Setup(false);
    setup_s.push_back((NowMs() - t0) / 1e3);
  };
  for (int i = 0; i < kSetups; ++i) set_up();
  Phase ph = w->Run(o.seconds, PhaseCtx{});
  const double cache_mb = w->session()->cache().ApproxBytes() / 1e6;
  for (int i = 0; i < kSetups; ++i) set_up();
  w->Teardown();
  const double tail_q = w->tail_quantile();
  std::cerr << o.workload << ": " << ph.latency_ms.size() << " queries, p"
            << tail_q * 100 << " has " << ph.latency_ms.size() * (1 - tail_q)
            << " samples beyond it; latency ms by percentile:";
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999}) {
    std::cerr << " p" << q * 100 << "=" << Quantile(ph.latency_ms, q);
  }
  std::cerr << "\n";
  out->correct = ph.correct;
  out->attempted = ph.attempted;
  out->failed = ph.failed;
  out->Add("setup_s", Quantile(setup_s, 0.5), "s");
  out->Add("query_p50_ms", Quantile(ph.latency_ms, 0.5), "ms");
  out->Add("query_tail_ms", Quantile(ph.latency_ms, tail_q), "ms");
  out->Add("queries_per_s",
           static_cast<double>(ph.latency_ms.size()) / (ph.timed_ms / 1e3),
           "1/s");
  out->Add("cache_mb", cache_mb, "MB");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void PerLayer(Workload* w, const Options& o, Outcome* out) {
  const double third = o.seconds / 3;
  LayerSamples s;
  // Untraced phase: the baseline for trace overhead and core usage.
  w->Setup(false);
  Phase untraced = w->Run(third, PhaseCtx{});
  // Traced phase: program traces on, per-query ExecStats and counters.
  w->Setup(true);
  const Counters c0 = w->Snap();
  Phase traced = w->Run(third, PhaseCtx{&s, nullptr});
  const Counters c1 = w->Snap();
  // Probe phase: the same session, each query replayed layer by layer.
  LayerProbe probe(w->session()->catalog(), &w->session()->library(),
                   w->probe_exec(), &s);
  g_time_solver = true;
  Phase probed = w->Run(third, PhaseCtx{nullptr, &probe});
  g_time_solver = false;
  w->Teardown();

  out->correct = untraced.correct && traced.correct && probed.correct;
  out->attempted = untraced.attempted + traced.attempted + probed.attempted;
  out->failed = untraced.failed + traced.failed + probed.failed;

  auto delta = [](int64_t a, int64_t b) { return static_cast<double>(b - a); };
  const double refreshes = delta(c0.cache.delta_refreshes, c1.cache.delta_refreshes);
  const sudaf::MetricsSnapshot svc = c1.service.Delta(c0.service);
  auto hist_mean = [&](const std::string& name) {
    auto it = svc.histograms.find(name);
    if (it == svc.histograms.end() || it->second.count == 0) return 0.0;
    return it->second.sum / static_cast<double>(it->second.count);
  };
  const double requested = s.Sum("states.requested");

  out->Add("sql.parse_us", s.Mean("sql.parse_us"), "us");
  out->Add("rewriter.rewrite_us", s.Mean("rewriter.rewrite_us"), "us");
  out->Add("rewriter.states_per_query", s.Mean("rewriter.states_per_query"), "count");
  out->Add("rewriter.assemble_ms", s.Mean("rewriter.assemble_ms"), "ms");
  out->Add("rewriter.groups_terminated", s.Mean("rewriter.groups_terminated"), "count");
  out->Add("rewriter.rows_returned", s.Mean("rewriter.rows_returned"), "count");
  out->Add("sketch.solve_ms", s.Mean("sketch.solve_ms"), "ms");
  out->Add("cache.probe_us", s.Mean("cache.probe_us"), "us");
  out->Add("cache.hit_ratio",
           requested > 0 ? s.Sum("states.from_cache") / requested : 0, "ratio");
  out->Add("cache.evictions", delta(c0.cache.evictions, c1.cache.evictions), "count");
  out->Add("cache.set_hits", delta(c0.cache.set_hits, c1.cache.set_hits), "count");
  out->Add("cache.delta_refreshes", refreshes, "count");
  out->Add("cache.full_invalidations",
           delta(c0.cache.full_invalidations, c1.cache.full_invalidations), "count");
  out->Add("executor.plan_us", s.Mean("executor.plan_us"), "us");
  out->Add("hash_join.filter_join_ms", s.Mean("hash_join.filter_join_ms"), "ms");
  out->Add("executor.rows_in", s.Mean("executor.rows_in"), "count");
  out->Add("executor.rows_selected", s.Mean("executor.rows_selected"), "count");
  out->Add("executor.gather_ms", s.Mean("executor.gather_ms"), "ms");
  out->Add("executor.group_ms", s.Mean("executor.group_ms"), "ms");
  out->Add("executor.scans", s.Sum("executor.scans"), "count");
  out->Add("state_batch.fused_ms", s.Mean("state_batch.fused_ms"), "ms");
  out->Add("state_batch.channels", s.Mean("state_batch.channels"), "count");
  out->Add("state_batch.shared_slots", s.Mean("state_batch.shared_slots"), "count");
  out->Add("state_batch.threads_used", s.Mean("state_batch.threads_used"), "count");
  out->Add("service.queue_wait_ms", hist_mean("sudaf.service.queue_wait_ms"), "ms");
  out->Add("service.batch_coalesced",
           static_cast<double>(svc.counter("sudaf.batch.coalesced")), "count");
  out->Add("service.scan_passes",
           static_cast<double>(svc.counter("sudaf.batch.scan_passes")), "count");
  out->Add("service.states_deduped",
           static_cast<double>(svc.counter("sudaf.batch.states_deduped")), "count");
  out->Add("catalog.append_ms", s.Mean("catalog.append_ms"), "ms");
  out->Add("session.refresh_ms",
           refreshes > 0 ? (c1.refresh_ms - c0.refresh_ms) / refreshes : 0, "ms");
  out->Add("session.refresh_delta_rows",
           refreshes > 0 ? delta(c0.cache.delta_rows_scanned,
                                 c1.cache.delta_rows_scanned) / refreshes
                         : 0,
           "count");
  out->Add("session.full_rescans", s.Sum("session.full_rescans"), "count");
  out->Add("cache_persist.wal_bytes", static_cast<double>(c1.wal_bytes), "bytes");
  out->Add("cache_persist.snapshot_bytes",
           static_cast<double>(c1.snapshot_file_bytes), "bytes");
  out->Add("cache_persist.compactions", delta(c0.snapshots, c1.snapshots), "count");
  out->Add("trace.overhead_ms",
           Quantile(traced.latency_ms, 0.5) - Quantile(untraced.latency_ms, 0.5),
           "ms");
  out->Add("process.busy_cores",
           untraced.wall_s > 0 ? untraced.cpu_s / untraced.wall_s : 0, "cores");
}

}  // namespace

bool RunWorkload(const Options& options, Outcome* outcome) {
  std::unique_ptr<Workload> w = MakeWorkload(options);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return false;
  }
  if (options.trace) {
    PerLayer(w.get(), options, outcome);
  } else {
    EndToEnd(w.get(), options, outcome);
  }
  return true;
}

}  // namespace perfbench
