#include "engine/aggregation.h"

#include <algorithm>
#include <unordered_map>

#include "agg/builtin_kernels.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"

namespace sudaf {

Result<std::unique_ptr<Table>> GatherColumns(
    const QueryPlan& plan, const JoinedRows& joined,
    const std::vector<std::string>& columns, const ExecOptions& opts) {
  Schema schema;
  struct Source {
    const Column* col;
    const std::vector<int64_t>* rows;
  };
  std::vector<Source> sources;
  for (const std::string& name : columns) {
    SUDAF_ASSIGN_OR_RETURN(auto loc, plan.ResolveColumn(name));
    const Column& col = plan.tables[loc.first]->column(loc.second);
    SUDAF_RETURN_IF_ERROR(schema.AddField(Field{name, col.type()}));
    sources.push_back(Source{&col, &joined.rows[loc.first]});
  }

  const int64_t n = joined.num_tuples;
  auto frame = std::make_unique<Table>(std::move(schema));
  for (size_t c = 0; c < sources.size(); ++c) {
    frame->column(static_cast<int>(c))
        .PrepareGatherFrom(*sources[c].col, n);
  }

  // Parallel gather over (column × row-range) tasks; every task writes a
  // disjoint window of a prepared output column, so the result is the same
  // positional copy the serial appends produced. String columns adopt the
  // source dictionary wholesale (PrepareGatherFrom) instead of re-interning
  // row by row.
  constexpr int64_t kMinRangeRows = 16384;
  const int ranges_per_col = std::max(
      1, PlannedWorkers(opts, (n + kMinRangeRows - 1) / kMinRangeRows));
  const int64_t num_tasks =
      static_cast<int64_t>(sources.size()) * ranges_per_col;
  auto run_task = [&](int64_t task) {
    const int c = static_cast<int>(task / ranges_per_col);
    const int64_t r = task % ranges_per_col;
    const int64_t lo = n * r / ranges_per_col;
    const int64_t hi = n * (r + 1) / ranges_per_col;
    frame->column(c).GatherRange(*sources[c].col, sources[c].rows->data(),
                                 lo, hi);
  };
  const int workers =
      std::min(PlannedWorkers(opts, num_tasks),
               ThreadPool::kMaxGlobalWorkers + 1);
  if (workers > 1) {
    ThreadPool& pool = ThreadPool::Global();
    pool.EnsureWorkers(workers - 1);
    pool.ParallelFor(num_tasks, run_task);
  } else {
    for (int64_t task = 0; task < num_tasks; ++task) run_task(task);
  }
  frame->FinishBulkAppend();
  return frame;
}

namespace {

// 64-bit mix for composite group keys.
uint64_t MixKey(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Flat open-addressing table mapping composite group keys to group ids:
// linear probing over a power-of-two entry array, no per-bucket vectors.
// A key is represented by one of its frame rows; `eq` compares the key
// columns of two rows.
class GroupHashTable {
 public:
  struct Entry {
    uint64_t hash = 0;
    int64_t row = -1;   // representative frame row
    int32_t gid = -1;   // -1 => empty slot
  };

  GroupHashTable() : entries_(kInitialCapacity) {}

  // Returns the group id of (h, row), inserting it as `next_gid` when new
  // (*inserted reports which happened).
  template <typename Eq>
  int32_t FindOrInsert(uint64_t h, int64_t row, int32_t next_gid,
                       const Eq& eq, bool* inserted) {
    if ((count_ + 1) * 10 >= entries_.size() * 7) Grow();
    const size_t mask = entries_.size() - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    for (;;) {
      Entry& e = entries_[idx];
      if (e.gid < 0) {
        e.hash = h;
        e.row = row;
        e.gid = next_gid;
        ++count_;
        *inserted = true;
        return next_gid;
      }
      if (e.hash == h && eq(e.row, row)) {
        *inserted = false;
        return e.gid;
      }
      idx = (idx + 1) & mask;
    }
  }

 private:
  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.size() * 2, Entry{});
    const size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.gid < 0) continue;
      size_t idx = static_cast<size_t>(e.hash) & mask;
      while (entries_[idx].gid >= 0) idx = (idx + 1) & mask;
      entries_[idx] = e;
    }
  }

  static constexpr size_t kInitialCapacity = 1024;
  std::vector<Entry> entries_;
  size_t count_ = 0;
};

}  // namespace

Status BuildGroups(const std::vector<std::string>& group_by,
                   PreparedInput* out, const ExecOptions& opts) {
  const Table& frame = *out->frame;
  const int64_t n = out->num_input_rows;
  out->group_ids.assign(n, 0);

  if (group_by.empty()) {
    out->num_groups = 1;
    out->group_keys = std::make_unique<Table>(Schema());
    return Status::OK();
  }

  // Per-row integer codes per key column (int64 value or dictionary code).
  std::vector<const Column*> key_cols;
  Schema key_schema;
  for (const std::string& name : group_by) {
    SUDAF_ASSIGN_OR_RETURN(const Column* col, frame.GetColumn(name));
    if (col->type() == DataType::kFloat64) {
      return Status::Unimplemented("GROUP BY on FLOAT64 column: " + name);
    }
    key_cols.push_back(col);
    SUDAF_RETURN_IF_ERROR(key_schema.AddField(Field{name, col->type()}));
  }
  out->group_keys = std::make_unique<Table>(std::move(key_schema));

  auto code_at = [&](int c, int64_t row) -> int64_t {
    const Column* col = key_cols[c];
    return col->type() == DataType::kInt64
               ? col->GetInt64(row)
               : static_cast<int64_t>(col->GetStringCode(row));
  };
  auto hash_row = [&](int64_t i) -> uint64_t {
    uint64_t h = 0;
    for (size_t c = 0; c < key_cols.size(); ++c) {
      h = MixKey(h, static_cast<uint64_t>(code_at(static_cast<int>(c), i)));
    }
    return h;
  };
  auto rows_equal = [&](int64_t a, int64_t b) -> bool {
    for (size_t c = 0; c < key_cols.size(); ++c) {
      if (code_at(static_cast<int>(c), a) != code_at(static_cast<int>(c), b)) {
        return false;
      }
    }
    return true;
  };

  // Two-phase parallel grouping. Phase 1 builds one local table per
  // contiguous row range, writing range-local ids into group_ids. Phase 2
  // merges the local key sets in ascending range order, local ids in local
  // first-occurrence order — which assigns every key its id at the first
  // range where it globally first occurs, so global ids come out in
  // first-occurrence row order for ANY contiguous partitioning (R = 1
  // reproduces the serial scan exactly). Phase 3 remaps local -> global in
  // parallel.
  constexpr int64_t kMinRangeRows = 16384;
  const int num_ranges =
      std::min(PlannedWorkers(opts, (n + kMinRangeRows - 1) / kMinRangeRows),
               ThreadPool::kMaxGlobalWorkers + 1);

  std::vector<GroupHashTable> local(num_ranges);
  std::vector<std::vector<int64_t>> local_first(num_ranges);
  auto build_local = [&](int64_t r) {
    GroupHashTable& tbl = local[r];
    std::vector<int64_t>& firsts = local_first[r];
    const int64_t lo = n * r / num_ranges;
    const int64_t hi = n * (r + 1) / num_ranges;
    for (int64_t i = lo; i < hi; ++i) {
      bool inserted = false;
      const int32_t gid =
          tbl.FindOrInsert(hash_row(i), i,
                           static_cast<int32_t>(firsts.size()), rows_equal,
                           &inserted);
      if (inserted) firsts.push_back(i);
      out->group_ids[i] = gid;
    }
  };
  if (num_ranges > 1) {
    ThreadPool& pool = ThreadPool::Global();
    pool.EnsureWorkers(num_ranges - 1);
    pool.ParallelFor(num_ranges, build_local);
  } else {
    build_local(0);
  }

  // Phase 2: deterministic serial merge over the (small) local key sets.
  GroupHashTable global;
  std::vector<int64_t> first_row;
  std::vector<std::vector<int32_t>> local_to_global(num_ranges);
  for (int r = 0; r < num_ranges; ++r) {
    local_to_global[r].resize(local_first[r].size());
    for (size_t g = 0; g < local_first[r].size(); ++g) {
      const int64_t row = local_first[r][g];
      bool inserted = false;
      const int32_t gid = global.FindOrInsert(
          hash_row(row), row, static_cast<int32_t>(first_row.size()),
          rows_equal, &inserted);
      if (inserted) first_row.push_back(row);
      local_to_global[r][g] = gid;
    }
  }

  // Phase 3: parallel local -> global remap (identity when R == 1).
  if (num_ranges > 1) {
    auto remap = [&](int64_t r) {
      const std::vector<int32_t>& map = local_to_global[r];
      const int64_t lo = n * r / num_ranges;
      const int64_t hi = n * (r + 1) / num_ranges;
      for (int64_t i = lo; i < hi; ++i) {
        out->group_ids[i] = map[out->group_ids[i]];
      }
    };
    ThreadPool::Global().ParallelFor(num_ranges, remap);
  }

  out->num_groups = static_cast<int32_t>(first_row.size());
  for (int64_t row : first_row) {
    for (size_t c = 0; c < key_cols.size(); ++c) {
      out->group_keys->column(static_cast<int>(c))
          .AppendValue(key_cols[c]->GetValue(row));
    }
  }
  out->group_keys->FinishBulkAppend();
  return Status::OK();
}

std::vector<double> ComputeGroupedState(AggOp op,
                                        const std::vector<double>& input,
                                        const std::vector<int32_t>& group_ids,
                                        int32_t num_groups,
                                        const ExecOptions& opts) {
  const int64_t n = static_cast<int64_t>(group_ids.size());
  if (!opts.partitioned || opts.num_partitions <= 1) {
    std::vector<double> acc(num_groups, AggIdentity(op));
    GroupedAccumulate(op, input, group_ids, &acc);
    return acc;
  }

  const int parts = opts.num_partitions;
  std::vector<std::vector<double>> partials(
      parts, std::vector<double>(num_groups, AggIdentity(op)));
  // Each partition accumulates over its index range of the shared arrays —
  // no per-partition slice copies.
  auto run_partition = [&](int64_t p) {
    GroupedAccumulateRange(op, input.data(), group_ids.data(), n * p / parts,
                           n * (p + 1) / parts, &partials[p]);
  };
  if (opts.parallel) {
    ThreadPool& pool = ThreadPool::Global();
    pool.EnsureWorkers(std::min(parts - 1, ThreadPool::kMaxGlobalWorkers));
    pool.ParallelFor(parts, run_partition);
  } else {
    for (int p = 0; p < parts; ++p) run_partition(p);
  }
  // Merge partials with ⊕.
  std::vector<double> acc(num_groups, AggIdentity(op));
  for (int p = 0; p < parts; ++p) {
    for (int32_t g = 0; g < num_groups; ++g) {
      acc[g] = AggMerge(op, acc[g], partials[p][g]);
    }
  }
  return acc;
}

Result<std::vector<double>> RunHardcodedUdaf(
    const Udaf& udaf, const std::vector<const Column*>& arg_columns,
    const std::vector<int32_t>& group_ids, int32_t num_groups,
    const ExecOptions& opts) {
  if (static_cast<int>(arg_columns.size()) != udaf.num_args()) {
    return Status::InvalidArgument(udaf.name() + " expects " +
                                   std::to_string(udaf.num_args()) +
                                   " argument column(s)");
  }
  const int64_t n = static_cast<int64_t>(group_ids.size());
  const int num_args = udaf.num_args();

  // Row-at-a-time driving is the slowest engine path, so the guard is
  // checked every kGuardStride rows — the row-at-a-time equivalent of the
  // fused executor's morsel-boundary check.
  constexpr int64_t kGuardStride = 4096;
  auto run_range = [&](int64_t lo, int64_t hi,
                       std::vector<std::vector<Value>>* states) -> Status {
    std::vector<Value> args(num_args);
    for (int64_t i = lo; i < hi; ++i) {
      if (opts.guard != nullptr && (i - lo) % kGuardStride == 0) {
        SUDAF_RETURN_IF_ERROR(opts.guard->Check());
      }
      // Box every input value — this is the per-row overhead hardcoded
      // UDAFs pay in real engines.
      for (int a = 0; a < num_args; ++a) {
        args[a] = arg_columns[a]->GetValue(i);
      }
      udaf.Update(&(*states)[group_ids[i]], args);
    }
    return Status::OK();
  };

  auto make_states = [&]() {
    std::vector<std::vector<Value>> states(num_groups);
    for (auto& s : states) s = udaf.Initialize();
    return states;
  };

  std::vector<std::vector<Value>> final_states;
  if (!opts.partitioned || opts.num_partitions <= 1) {
    final_states = make_states();
    SUDAF_RETURN_IF_ERROR(run_range(0, n, &final_states));
  } else {
    const int parts = opts.num_partitions;
    std::vector<std::vector<std::vector<Value>>> partials(parts);
    for (int p = 0; p < parts; ++p) partials[p] = make_states();
    auto run_partition = [&](int64_t p) -> Status {
      return run_range(n * p / parts, n * (p + 1) / parts, &partials[p]);
    };
    if (opts.parallel) {
      ThreadPool& pool = ThreadPool::Global();
      pool.EnsureWorkers(std::min(parts - 1, ThreadPool::kMaxGlobalWorkers));
      SUDAF_RETURN_IF_ERROR(pool.TryParallelFor(parts, run_partition));
    } else {
      for (int p = 0; p < parts; ++p) {
        SUDAF_RETURN_IF_ERROR(run_partition(p));
      }
    }
    final_states = std::move(partials[0]);
    for (int p = 1; p < parts; ++p) {
      for (int32_t g = 0; g < num_groups; ++g) {
        udaf.Merge(&final_states[g], partials[p][g]);
      }
    }
  }

  std::vector<double> out(num_groups);
  for (int32_t g = 0; g < num_groups; ++g) {
    SUDAF_ASSIGN_OR_RETURN(Value v, udaf.Evaluate(final_states[g]));
    out[g] = v.AsDouble();
  }
  return out;
}

}  // namespace sudaf
