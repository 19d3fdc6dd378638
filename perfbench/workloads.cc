#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "brute.h"
#include "core/csv.h"
#include "engine/cost.h"
#include "engine/engine.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "ra/parse.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "setjoin/division.h"
#include "setjoin/setjoin.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "stats/stats.h"
#include "trace.h"
#include "txn/snapshot.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

namespace core = setalg::core;
namespace engine = setalg::engine;
namespace ra = setalg::ra;
namespace server = setalg::server;
namespace setjoin = setalg::setjoin;
namespace sql = setalg::sql;
namespace stats = setalg::stats;
namespace txn = setalg::txn;
namespace util = setalg::util;
namespace workload = setalg::workload;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// How a run turns a timing measured once per slice (serving) or per pass
// (bulk) into its one figure: the decile on the fast side — the lower
// decile of times, the upper decile of rates. On the shared 4-CPU machine
// the benchmark was written on, the CPU time a process gets switches
// between two levels about 1.5x apart every 0.3-5 s (a busy loop timed
// every half second read 245-405 ms), and the share of slow time drifts
// over minutes; a run's median then follows that drift, not the program
// (ten same-build serve-read runs spread 24-47% between their quartiles),
// and so does its lower quartile whenever most of a run is slow (five
// bulk runs spread 26-30%). The fast decile reads the speed the program
// reaches when it has the CPU, and a slowdown in the program, present in
// every slice, still moves it.
double FastDecile(std::vector<double> values, bool higher_is_better = false) {
  return Quantile(std::move(values), higher_is_better ? 0.9 : 0.1);
}

/// The medians of consecutive groups of `group` values (the last partial
/// group dropped when there is a full one).
std::vector<double> GroupMedians(const std::vector<double>& values, std::size_t group) {
  std::vector<double> medians;
  for (std::size_t i = 0; i + group <= values.size(); i += group) {
    medians.push_back(Median({values.begin() + static_cast<long>(i),
                              values.begin() + static_cast<long>(i + group)}));
  }
  if (medians.empty() && !values.empty()) medians.push_back(Median(values));
  return medians;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Load threads and the parallel pool never exceed the machine's CPUs.
std::size_t Cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t PoolWidth() { return std::min<std::size_t>(Cpus(), 4); }

// ---------------------------------------------------------------------------
// Workload data: one database per workload, the text statements served or
// run against it, and the set-shaped inputs the kernel probe measures.
// ---------------------------------------------------------------------------

enum class Family { kOther, kDivision, kContainment, kEquality, kTriangle };

struct Statement {
  std::string text;  // SQL or RA text, as a client sends it.
  Family family = Family::kOther;
  /// kOther: the generator's independently built lowering, evaluated with
  /// EngineOptions::Reference() for the check.
  ra::ExprPtr mirror;
  /// The other families: the relations the brute-force check reads
  /// (division r, s; set joins r, s; triangle r, s, t).
  std::vector<std::string> inputs;
};

/// The relations a statement reads: its expected result changes only
/// when one of their versions does.
std::vector<std::string> ReadSet(const Statement& st) {
  return st.mirror != nullptr ? ra::CollectRelationNames(*st.mirror) : st.inputs;
}

/// A hand-built set-join plan: the set joins have no logical form, so a
/// caller assembles the operator with the kernel the cost model picks.
struct PlanCase {
  Family family = Family::kContainment;
  std::string r, s;
};

struct Data {
  core::Database db;
  std::vector<Statement> statements;
  /// Relations the writer and the commit probe rotate over; the first is
  /// the workload's largest dividend.
  std::vector<std::string> write_targets;
  std::vector<std::pair<std::string, std::string>> divisions;  // r, s
  /// The kernel probe's set-join inputs; on bulk also the timed plans.
  std::vector<PlanCase> set_joins;
  std::vector<std::vector<std::string>> triangles;  // r, s, t
};

// Set containment T ⊇ U as the classic relational-algebra text: every
// (a, c) pair minus the pairs with an element of c missing from a.
std::string ContainmentText(const std::string& r, const std::string& s) {
  const std::string pairs = "product(pi[1](" + r + "), " + s + ")";
  return "diff(product(pi[1](" + r + "), pi[1](" + s + ")), pi[1,2](diff(" +
         pairs + ", semijoin[1=1;3=2](" + pairs + ", " + r + "))))";
}

// Set equality: containment both ways (the second swapped), intersected.
std::string EqualityText(const std::string& r, const std::string& s) {
  const std::string forward = ContainmentText(r, s);
  const std::string backward = "pi[2,1](" + ContainmentText(s, r) + ")";
  return "diff(" + forward + ", diff(" + forward + ", " + backward + "))";
}

std::string TriangleSql(const std::string& r, const std::string& s,
                        const std::string& t) {
  return "SELECT * FROM " + r + " a, " + s + " b, " + t +
         " c WHERE a.c2 = b.c1 AND b.c2 = c.c1 AND a.c1 = c.c2";
}

std::string DivisionSql(const std::string& r, const std::string& s) {
  return "SELECT r.c1 FROM " + r + " r WHERE NOT EXISTS (SELECT * FROM " + s +
         " s WHERE NOT EXISTS (SELECT * FROM " + r +
         " r2 WHERE r2.c1 = r.c1 AND r2.c2 = s.c1))";
}

// The SQL workload pairs (both spellings: the SQL text and the mirror's RA
// text) plus one statement of each set-shaped family over R, S, T, U.
// The statements come from a fixed generator seed: which of them are
// expensive decides the throughput and the tail, so a seed-drawn pool
// would move those figures by more than any bound (a 5-seed probe of a
// seed-drawn 40-pair pool read 10k-43k statements/s). The run's seed
// drives the data and the order in which each connection sends them.
void AddServeStatements(std::size_t pairs, Data* data) {
  workload::SqlWorkloadConfig config;
  config.count = pairs;
  config.seed = 1;
  for (auto& pair : workload::MakeSqlWorkload(config)) {
    const bool division = pair.family == "division";
    Statement st;
    st.family = division ? Family::kDivision : Family::kOther;
    st.mirror = pair.expr;
    if (division) st.inputs = {"R", "S"};
    st.text = pair.sql;
    data->statements.push_back(st);
    // The RA spelling of the same statement, when the mirror's text form
    // is in the wire grammar (the gfdiv trees use operators it lacks).
    st.text = pair.expr->ToString();
    if (ra::Parse(st.text, data->db.schema()).ok()) data->statements.push_back(st);
  }
  data->statements.push_back(
      {setjoin::ClassicDivisionExpr("R", "S")->ToString(), Family::kDivision,
       nullptr, {"R", "S"}});
  data->statements.push_back(
      {ContainmentText("T", "U"), Family::kContainment, nullptr, {"T", "U"}});
  data->statements.push_back(
      {EqualityText("T", "U"), Family::kEquality, nullptr, {"T", "U"}});
  data->statements.push_back(
      {TriangleSql("T", "U", "T"), Family::kTriangle, nullptr, {"T", "U", "T"}});
  data->write_targets = {"R", "S", "T", "U"};
  data->divisions = {{"R", "S"}};
  data->set_joins = {{Family::kContainment, "T", "U"}, {Family::kEquality, "T", "U"}};
  data->triangles = {{"T", "U", "T"}};
}

// serve-read (the checker's self-test data; dropped as a workload, see the
// README): the SQL workload database (|R| = 240-ish) and a pool of
// 40 pairs — about 85 statements over fewer than 50 distinct expression
// shapes, so every one fits the server's 256-entry caches.
Data MakeServeRead(std::uint64_t seed) {
  Data data;
  data.db = workload::SqlWorkloadDatabase(seed);
  AddServeStatements(40, &data);
  return data;
}

// serve-write: the serve-read relations plus a large dividend D
// (|D| ≈ 10^5) with its divisor E, a pool of 400 pairs — more distinct
// shapes than the 256-entry caches hold — and the division of D by E,
// as SQL and as classic RA text, four times each per round. (The SQL
// generator joins its relations freely, so the large dividend is a
// relation of its own: R ⋈ R at |R| = 10^5 would not fit in memory.)
Data MakeServeWrite(std::uint64_t seed) {
  const core::Database small = workload::SqlWorkloadDatabase(seed);
  const core::Database large = workload::DivisionFamilyDatabase(100000, 4, seed + 17);
  core::Schema schema = small.schema();
  schema.AddRelation("D", 2);
  schema.AddRelation("E", 1);
  Data data;
  data.db = core::Database(schema);
  for (const auto& name : small.schema().Names()) {
    data.db.SetRelation(name, small.relation(name));
  }
  data.db.SetRelation("D", large.relation("R"));
  data.db.SetRelation("E", large.relation("S"));
  AddServeStatements(400, &data);
  data.statements.push_back({DivisionSql("D", "E"), Family::kDivision, nullptr, {"D", "E"}});
  data.statements.push_back({setjoin::ClassicDivisionExpr("D", "E")->ToString(),
                             Family::kDivision, nullptr, {"D", "E"}});
  data.write_targets = {"D", "E", "R", "S", "T", "U"};
  data.divisions = {{"D", "E"}};
  return data;
}

// bulk: large divisions, uniform and zipf-skewed
// containment joins, an equality join and the skewed triangle.
Data MakeBulk(std::uint64_t seed) {
  core::Schema schema;
  const std::vector<std::size_t> division_sizes = {100000, 400000, 1600000};
  for (std::size_t k = 1; k <= division_sizes.size(); ++k) {
    schema.AddRelation("D" + std::to_string(k), 2);
    schema.AddRelation("S" + std::to_string(k), 1);
  }
  for (const char* name : {"CR", "CS", "ZR", "ZS", "ER", "ES", "TR", "TS", "TT"}) {
    schema.AddRelation(name, 2);
  }
  Data data;
  data.db = core::Database(schema);
  for (std::size_t k = 1; k <= division_sizes.size(); ++k) {
    auto family = workload::DivisionFamilyDatabase(division_sizes[k - 1], 4,
                                                   seed * 31 + k);
    const std::string d = "D" + std::to_string(k);
    const std::string s = "S" + std::to_string(k);
    data.db.SetRelation(d, family.relation("R"));
    data.db.SetRelation(s, family.relation("S"));
    data.statements.push_back({DivisionSql(d, s), Family::kDivision, nullptr, {d, s}});
    data.statements.push_back({setjoin::ClassicDivisionExpr(d, s)->ToString(),
                               Family::kDivision, nullptr, {d, s}});
    data.divisions.emplace_back(d, s);
  }

  workload::SetJoinConfig uniform;
  uniform.r_groups = uniform.s_groups = 2000;
  uniform.r_group_size = 8;
  uniform.s_group_size = 4;
  uniform.domain_size = 1000;
  uniform.containment_fraction = 0.05;
  uniform.seed = seed * 31 + 7;
  auto containment = workload::MakeSetJoinInstance(uniform);
  data.db.SetRelation("CR", std::move(containment.r));
  data.db.SetRelation("CS", std::move(containment.s));

  workload::SetJoinConfig skewed;
  skewed.r_groups = skewed.s_groups = 1000;
  skewed.r_group_size = 24;
  skewed.s_group_size = 4;
  skewed.domain_size = 4000;
  skewed.containment_fraction = 0.05;
  skewed.zipf_skew = 1.5;
  skewed.seed = seed * 31 + 8;
  auto zipf = workload::MakeSetJoinInstance(skewed);
  data.db.SetRelation("ZR", std::move(zipf.r));
  data.db.SetRelation("ZS", std::move(zipf.s));

  workload::SetJoinConfig equal;
  equal.r_groups = equal.s_groups = 4000;
  equal.r_group_size = equal.s_group_size = 8;
  equal.domain_size = 2000;
  equal.containment_fraction = 0.1;
  equal.seed = seed * 31 + 9;
  auto equality = workload::MakeSetJoinInstance(equal);
  data.db.SetRelation("ER", std::move(equality.r));
  data.db.SetRelation("ES", std::move(equality.s));

  auto triangle = workload::SqlTriangleDatabase(16000, 32, seed * 31 + 10);
  data.db.SetRelation("TR", triangle.relation("R"));
  data.db.SetRelation("TS", triangle.relation("S"));
  data.db.SetRelation("TT", triangle.relation("T"));
  data.statements.push_back({TriangleSql("TR", "TS", "TT"), Family::kTriangle,
                             nullptr, {"TR", "TS", "TT"}});

  data.set_joins = {{Family::kContainment, "CR", "CS"},
                    {Family::kContainment, "ZR", "ZS"},
                    {Family::kEquality, "ER", "ES"}};
  data.triangles = {{"TR", "TS", "TT"}};
  data.write_targets = {"D3", "S3", "CR", "ES", "TT"};
  return data;
}

Data MakeData(const std::string& workload, std::uint64_t seed) {
  if (workload == "serve-read") return MakeServeRead(seed);
  if (workload == "serve-write") return MakeServeWrite(seed);
  return MakeBulk(seed);
}

bool IsServe(const std::string& workload) {
  return workload == "serve-read" || workload == "serve-write";
}

/// The engine options each workload runs with: the server's default
/// (`planned`) options, or the bulk options: multiway routing, serial, no
/// result cache.
engine::EngineOptions WorkloadOptions(const std::string& workload) {
  if (workload == "bulk") return engine::EngineOptions{}.WithMultiway();
  return engine::EngineOptions{};
}

/// A hand-built set-join plan with the kernel the cost model picks from
/// the inputs' statistics, as a caller assembling a plan would.
engine::PhysicalPlan BuildPlan(const PlanCase& pc, const txn::Snapshot& snapshot,
                               std::string* algorithm) {
  const engine::CostModel model(nullptr);
  const auto r_est = engine::FromStats(*snapshot.Get(pc.r));
  const auto s_est = engine::FromStats(*snapshot.Get(pc.s));
  engine::PhysicalPlan plan;
  if (pc.family == Family::kContainment) {
    const auto choice = model.ChooseContainment(r_est, s_est);
    *algorithm = setjoin::ContainmentAlgorithmToString(choice.algorithm);
    plan.root = engine::MakeSetContainmentJoin(engine::MakeScan(pc.r, 2),
                                               engine::MakeScan(pc.s, 2),
                                               choice.algorithm);
  } else {
    const auto choice = model.ChooseSetEquality(r_est, s_est);
    *algorithm = setjoin::EqualityJoinAlgorithmToString(choice.algorithm);
    plan.root = engine::MakeSetEqualityJoin(engine::MakeScan(pc.r, 2),
                                            engine::MakeScan(pc.s, 2),
                                            choice.algorithm);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Independent expected results.
// ---------------------------------------------------------------------------

struct Expected {
  bool ok = false;
  std::string error;
  Rows rows;
  std::size_t arity = 0;
  std::string digest;  // server::DigestToHex of the expected relation.
};

Expected ExpectedFor(Family family, const std::vector<std::string>& inputs,
                     const ra::ExprPtr& mirror, const core::DatabaseView& snapshot) {
  Expected e;
  switch (family) {
    case Family::kDivision:
      e.rows = BruteDivide(PairsOf(snapshot.relation(inputs[0])),
                           ValuesOf(snapshot.relation(inputs[1])), false);
      e.arity = 1;
      break;
    case Family::kContainment:
      e.rows = BruteContainment(PairsOf(snapshot.relation(inputs[0])),
                                PairsOf(snapshot.relation(inputs[1])));
      e.arity = 2;
      break;
    case Family::kEquality:
      e.rows = BruteEquality(PairsOf(snapshot.relation(inputs[0])),
                             PairsOf(snapshot.relation(inputs[1])));
      e.arity = 2;
      break;
    case Family::kTriangle:
      e.rows = BruteTriangle(PairsOf(snapshot.relation(inputs[0])),
                             PairsOf(snapshot.relation(inputs[1])),
                             PairsOf(snapshot.relation(inputs[2])));
      e.arity = 6;
      break;
    case Family::kOther: {
      auto run = engine::Engine(engine::EngineOptions::Reference()).Run(mirror, snapshot);
      if (!run.ok()) {
        e.error = "reference run failed: " + run.error();
        return e;
      }
      e.rows = RowsOf(run->relation);
      e.arity = run->relation.arity();
      break;
    }
  }
  e.digest = server::DigestToHex(server::RelationDigest(ToRelation(e.rows, e.arity)));
  e.ok = true;
  return e;
}

Expected ExpectedFor(const Statement& st, const core::DatabaseView& snapshot) {
  return ExpectedFor(st.family, st.inputs, st.mirror, snapshot);
}

/// One served response, as the load generator kept it.
struct Sample {
  std::uint32_t statement = 0;
  double ms = 0.0;
  bool transport_ok = false;
  server::ResponseHeader header;
  /// The data rows — kept for the first response of each statement on a
  /// connection (the full row check); empty otherwise.
  std::vector<std::string> rows;
  bool has_rows = false;
};

/// One connection's samples. A deque grows in fixed blocks, so the
/// benchmark's own memory rises with the sample count, not in doublings
/// that would move peak_rss_mb from run to run.
using SampleStream = std::deque<Sample>;

/// Checks one response against the independent result for the version
/// its OK header reports. Returns an empty string when it passes.
std::string CheckResponse(const Sample& sample, const Expected& expected) {
  if (!sample.transport_ok) return "transport error";
  if (!sample.header.ok || sample.header.verb != "OK") {
    return "server error: " + sample.header.error;
  }
  if (!expected.ok) return expected.error;
  if (sample.header.rows != expected.rows.size()) return "wrong row count";
  if (sample.header.digest != expected.digest) return "wrong digest";
  if (sample.has_rows) {
    Rows got;
    if (!ParseCsvRows(sample.rows, &got)) return "unparseable rows";
    if (sample.rows.size() != expected.rows.size() || got != expected.rows) {
      return "wrong rows";
    }
  }
  return "";
}

/// True when the failure is a wrong answer (rather than an error reply or
/// a transport failure).
bool IsWrongAnswer(const std::string& problem) {
  return problem.rfind("wrong", 0) == 0 || problem.rfind("unparseable", 0) == 0 ||
         problem.rfind("version", 0) == 0;
}

// ---------------------------------------------------------------------------
// Writes: the serve-write writer and the commit probe share one rotation.
// ---------------------------------------------------------------------------

class CommitRotation {
 public:
  CommitRotation(std::vector<std::string> targets, std::uint64_t seed)
      : targets_(std::move(targets)), rng_(seed), pending_(targets_.size()) {}

  const std::string& target(std::size_t i) const { return targets_[i % targets_.size()]; }

  /// Commits change `i`: a relation's even visits add a fresh tuple (a
  /// key one to three past the largest, so it is always new) through
  /// Mutate, its odd visits remove it again through a one-write
  /// WriteBatch. Every seed thus makes the same kinds of change to
  /// relations of the same sizes; only the values differ. `toggled`, when
  /// given, receives the tuple added or removed.
  txn::SnapshotPtr Apply(txn::VersionedDatabase& head, std::size_t i,
                         core::Tuple* toggled = nullptr) {
    const std::size_t which = i % targets_.size();
    const std::string& name = targets_[which];
    Pending& p = pending_[which];
    p.armed = !p.armed;
    if (p.armed) {
      const auto snapshot = head.snapshot();
      const core::Relation& current = snapshot->relation(name);
      core::Value largest = 0;
      core::Value element = 1;
      if (!current.empty()) {
        largest = current.tuple(current.size() - 1)[0];
        const auto t = current.tuple(rng_.NextBounded(current.size()));
        element = t[t.size() - 1];
      }
      const core::Value fresh = largest + 1 + static_cast<core::Value>(rng_.NextBounded(3));
      p.tuple = current.arity() == 1 ? core::Tuple{fresh} : core::Tuple{fresh, element};
    }
    if (toggled != nullptr) *toggled = p.tuple;
    if (p.armed) {
      return head.Mutate(name, [&](core::Relation& rel) { Toggle(rel, p.tuple); });
    }
    core::Relation copy = head.snapshot()->relation(name);
    Toggle(copy, p.tuple);
    txn::WriteBatch batch;
    batch.Set(name, std::move(copy));
    return head.Commit(std::move(batch));
  }

  /// Adds `tuple` to `rel`, or removes it when present.
  static void Toggle(core::Relation& rel, const core::Tuple& tuple) {
    if (rel.Contains(tuple)) {
      core::Relation one(rel.arity());
      one.Add(tuple);
      rel = core::Difference(rel, one);
    } else {
      rel.Add(tuple);
    }
  }

 private:
  struct Pending {
    core::Tuple tuple;
    bool armed = false;
  };

  std::vector<std::string> targets_;
  util::Rng rng_;
  std::vector<Pending> pending_;
};

// ---------------------------------------------------------------------------
// Serving: setup, the closed-loop window, the writer, the checks.
// ---------------------------------------------------------------------------

constexpr std::size_t kConnections = 3;
constexpr std::size_t kCacheEntries = 256;
constexpr double kWriterPeriodMs = 200.0;  // 5 commits per second.

struct Op {
  std::uint32_t statement = 0;
  bool prepared = false;  // EXECUTE p<statement> instead of QUERY <text>.
};

struct Connection {
  server::Client client;
  std::vector<Op> round;
  SampleStream samples;
  std::vector<bool> rows_kept;  // Per statement: full rows already kept.
};

struct ServeSetup {
  std::unique_ptr<Data> data;
  std::shared_ptr<txn::VersionedDatabase> head;
  engine::EngineOptions options;  // With the caches the server shares.
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<Connection>> connections;
  std::string error;
};

std::string RequestLine(const Statement& st, const Op& op) {
  return op.prepared ? "EXECUTE p" + std::to_string(op.statement)
                     : "QUERY " + st.text;
}

// Each connection's round: every pool statement once (every fourth one
// prepared and sent as EXECUTE) and each set-shaped statement
// `set_copies` times, in an order shuffled by the seed. Every seed thus
// sends the same mix, so runs on different seeds stay comparable.
std::vector<Op> MakeRound(const Data& data, std::size_t set_copies, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Op> round;
  for (std::uint32_t i = 0; i < data.statements.size(); ++i) {
    const bool set_shaped = data.statements[i].mirror == nullptr;
    for (std::size_t k = 0; k < (set_shaped ? set_copies : 1); ++k) {
      round.push_back({i, !set_shaped && i % 4 == 3});
    }
  }
  rng.Shuffle(&round);
  return round;
}

// Sends one op and keeps the response (rows only the first time a
// statement is seen on the connection).
void SendOp(Connection& conn, const Data& data, const Op& op) {
  const std::string line = RequestLine(data.statements[op.statement], op);
  Sample sample;
  sample.statement = op.statement;
  const auto t0 = Clock::now();
  auto response = conn.client.Roundtrip(line);
  sample.ms = Micros(t0, Clock::now()) / 1000.0;
  if (response.ok()) {
    sample.transport_ok = true;
    sample.header = response->header;
    if (!conn.rows_kept[op.statement]) {
      conn.rows_kept[op.statement] = true;
      sample.rows = std::move(response->rows);
      sample.has_rows = true;
    }
  }
  conn.samples.push_back(std::move(sample));
}

/// Opens one connection that will send `round`, preparing its EXECUTE
/// targets first.
util::Result<std::unique_ptr<Connection>> Connect(const Data& data, int port,
                                                  std::vector<Op> round) {
  using R = util::Result<std::unique_ptr<Connection>>;
  auto client = server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return R::Error("connect: " + client.error());
  auto conn = std::make_unique<Connection>();
  conn->client = std::move(*client);
  conn->round = std::move(round);
  conn->rows_kept.assign(data.statements.size(), false);
  for (const Op& op : conn->round) {
    if (!op.prepared) continue;
    const std::string line = "PREPARE p" + std::to_string(op.statement) + " " +
                             data.statements[op.statement].text;
    auto response = conn->client.Roundtrip(line);
    if (!response.ok() || response->header.verb != "PREPARED") {
      return R::Error("prepare failed: " + line);
    }
  }
  return R(std::move(conn));
}

ServeSetup SetUpServe(const std::string& workload, std::uint64_t seed) {
  ServeSetup s;
  s.data = std::make_unique<Data>(MakeData(workload, seed));
  s.head = std::make_shared<txn::VersionedDatabase>(s.data->db);
  s.options = WorkloadOptions(workload).WithSharedCaches(
      std::make_shared<engine::SharedPlanCache>(kCacheEntries, 0),
      std::make_shared<engine::ResultCache>(kCacheEntries, std::size_t{64} << 20));
  s.server = std::make_unique<server::Server>(s.head, s.options, nullptr);
  auto port = s.server->Start(0);
  if (!port.ok()) {
    s.error = "server start: " + port.error();
    return s;
  }
  const std::size_t set_copies = 4;
  const std::size_t connections = std::min(kConnections, Cpus());
  for (std::size_t c = 0; c < connections; ++c) {
    auto conn = Connect(*s.data, *port, MakeRound(*s.data, set_copies, seed * 1000003 + c));
    if (!conn.ok()) {
      s.error = conn.error();
      return s;
    }
    s.connections.push_back(std::move(*conn));
  }
  // Warm-up: every connection sends its round once, concurrently; those
  // responses are not samples.
  std::vector<std::thread> threads;
  for (auto& conn : s.connections) {
    threads.emplace_back([&s, c = conn.get()] {
      for (const Op& op : c->round) {
        const std::string line = RequestLine(s.data->statements[op.statement], op);
        (void)c->client.Roundtrip(line);
      }
    });
  }
  for (auto& t : threads) t.join();
  return s;
}

/// One published version's relations, as a database view the checks read.
class VersionView : public core::DatabaseView {
 public:
  using Relations = std::map<std::string, std::shared_ptr<const core::Relation>>;

  VersionView(const core::Schema& schema, std::uint64_t id, Relations relations,
              std::map<std::string, std::uint64_t> versions)
      : schema_(schema), id_(id), relations_(std::move(relations)),
        versions_(std::move(versions)) {}

  const core::Schema& schema() const override { return schema_; }
  const core::Relation& relation(const std::string& name) const override {
    return *relations_.at(name);
  }
  std::uint64_t id() const override { return id_; }
  std::uint64_t relation_version(const std::string& name) const override {
    return versions_.at(name);
  }

 private:
  const core::Schema& schema_;
  std::uint64_t id_;
  Relations relations_;
  std::map<std::string, std::uint64_t> versions_;
};

/// Every published version's relations, so responses are checked on
/// exactly the state their OK header names. Keeps copies of the changed
/// relations only — holding the snapshots themselves would also hold the
/// statistics each one computes (close to 1 GB over a serve-write run).
class VersionLog {
 public:
  explicit VersionLog(const txn::Snapshot& initial)
      : schema_(initial.schema()), id_(initial.id()), first_(initial.version()) {
    for (const auto& name : schema_.Names()) {
      initial_[name] = std::make_shared<const core::Relation>(initial.relation(name));
      initial_[name]->Normalize();
    }
  }

  /// Records the commit that published `version` by toggling `tuple` in
  /// the log's own copy of `name`: the expected states never come from
  /// the relations the head published.
  void Toggle(std::uint64_t version, const std::string& name, const core::Tuple& tuple) {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const core::Relation> latest = initial_.at(name);
    for (const auto& [v, change] : changes_) {
      if (change.first == name) latest = change.second;
    }
    auto next = std::make_shared<core::Relation>(*latest);
    CommitRotation::Toggle(*next, tuple);
    next->Normalize();  // Read from several checking threads later.
    changes_[version] = {name, std::move(next)};
  }

  /// The view at `version`, or nullptr when no commit published it.
  std::unique_ptr<VersionView> Find(std::uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (version != first_ && changes_.count(version) == 0) return nullptr;
    VersionView::Relations relations = initial_;
    std::map<std::string, std::uint64_t> versions;
    for (const auto& name : schema_.Names()) versions[name] = 0;
    for (const auto& [v, change] : changes_) {
      if (v > version) break;
      relations[change.first] = change.second;
      versions[change.first] = v;
    }
    return std::make_unique<VersionView>(schema_, id_, std::move(relations),
                                         std::move(versions));
  }

 private:
  const core::Schema schema_;
  const std::uint64_t id_;
  const std::uint64_t first_;
  VersionView::Relations initial_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::pair<std::string, std::shared_ptr<const core::Relation>>>
      changes_;  // Guarded by mu_.
};

/// The serve-write writer: one commit every kWriterPeriodMs until stopped.
class Writer {
 public:
  Writer(txn::VersionedDatabase* head, const std::vector<std::string>& targets,
         std::uint64_t seed, VersionLog* log, Tracer* tracer)
      : head_(head), rotation_(targets, seed), log_(log), tracer_(tracer) {}

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  ~Writer() { Stop(); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  const std::vector<double>& commit_ms() const { return commit_ms_; }
  std::size_t commits() const { return commits_.load(); }

 private:
  void Loop() {
    auto next = Clock::now();
    for (std::size_t i = 0; !stop_.load(); ++i) {
      core::Tuple toggled;
      ScopedSpan span(tracer_, "txn.commit");
      const auto snapshot = rotation_.Apply(*head_, i, &toggled);
      commit_ms_.push_back(span.End() / 1000.0);
      log_->Toggle(snapshot->version(), rotation_.target(i), toggled);
      commits_.fetch_add(1);
      next += std::chrono::microseconds(static_cast<long>(kWriterPeriodMs * 1000));
      while (!stop_.load() && Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  txn::VersionedDatabase* head_;
  CommitRotation rotation_;
  VersionLog* log_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> commits_{0};
  std::vector<double> commit_ms_;  // Written by the writer thread only.
  std::thread thread_;
};

/// Checks every sample against the independent results; returns the
/// failures and, in `problems`, one line per kind of failure.
struct CheckOutcome {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::map<std::string, std::uint64_t> problems;
};

CheckOutcome CheckSamples(const Data& data, const VersionLog& versions,
                          const std::vector<const SampleStream*>& streams) {
  // Statements with one expected result share a shape: the SQL and the RA
  // spelling of a pair, and pairs the generator drew twice.
  using Key = std::pair<std::uint32_t, std::vector<std::uint64_t>>;
  std::vector<std::vector<std::string>> reads;
  std::vector<std::uint32_t> shape_of;
  std::vector<std::uint32_t> statement_of_shape;
  std::map<std::string, std::uint32_t> shapes;
  for (std::uint32_t i = 0; i < data.statements.size(); ++i) {
    const Statement& st = data.statements[i];
    reads.push_back(ReadSet(st));
    const std::string shape = st.mirror != nullptr ? "expr " + st.mirror->ToString()
                                                   : "text " + st.text;
    const auto [it, added] =
        shapes.emplace(shape, static_cast<std::uint32_t>(statement_of_shape.size()));
    if (added) statement_of_shape.push_back(i);
    shape_of.push_back(it->second);
  }
  std::map<std::uint64_t, std::unique_ptr<VersionView>> views;

  // Pass 1: the version checks, and each sample's key — the shape and the
  // versions of the relations it reads — so that each distinct expected
  // result is computed once.
  std::vector<std::vector<std::string>> problems(streams.size());
  std::vector<std::vector<const Key*>> sample_keys(streams.size());
  std::map<Key, const VersionView*> keys;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    std::uint64_t last_version = 0;
    for (const Sample& sample : *streams[i]) {
      std::string problem;
      const Key* key = nullptr;
      if (sample.transport_ok && sample.header.ok) {
        const std::uint64_t version = sample.header.version;
        if (version < last_version) problem = "version went backwards";
        last_version = std::max(last_version, version);
        auto view = views.find(version);
        if (view == views.end()) view = views.emplace(version, versions.Find(version)).first;
        if (view->second == nullptr) {
          if (problem.empty()) problem = "version unknown to the writer log";
        } else {
          std::vector<std::uint64_t> key_versions;
          for (const auto& name : reads[sample.statement]) {
            key_versions.push_back(view->second->relation_version(name));
          }
          key = &keys.emplace(Key{shape_of[sample.statement], std::move(key_versions)},
                              view->second.get())
                     .first->first;
        }
      }
      problems[i].push_back(std::move(problem));
      sample_keys[i].push_back(key);
    }
  }

  // Pass 2: the expected results, on up to four threads.
  std::vector<std::pair<const Key*, const VersionView*>> work;
  for (const auto& [key, view] : keys) work.emplace_back(&key, view);
  std::map<const Key*, Expected> expected;
  for (const auto& [key, view] : work) expected[key];
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < PoolWidth(); ++t) {
    threads.emplace_back([&] {
      for (std::size_t w = next++; w < work.size(); w = next++) {
        expected.at(work[w].first) = ExpectedFor(
            data.statements[statement_of_shape[work[w].first->first]], *work[w].second);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Pass 3: every response against its expected result.
  CheckOutcome out;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = 0; j < streams[i]->size(); ++j) {
      ++out.checked;
      std::string problem = problems[i][j];
      if (problem.empty()) {
        const Key* key = sample_keys[i][j];
        problem = CheckResponse((*streams[i])[j], key != nullptr ? expected.at(key) : Expected{});
      }
      if (!problem.empty()) {
        ++out.failed;
        if (IsWrongAnswer(problem)) ++out.wrong;
        ++out.problems[problem];
      }
    }
  }
  return out;
}

void AddProblems(const CheckOutcome& check, RunReport* report) {
  report->attempted += check.checked;
  report->failed += check.failed;
  if (check.wrong > 0) report->correct = false;
  for (const auto& [problem, count] : check.problems) {
    report->problems.push_back(problem + " x" + std::to_string(count));
  }
}

// ---------------------------------------------------------------------------
// Bulk: one query at a time on a snapshot.
// ---------------------------------------------------------------------------

/// One bulk operation: a text statement (compiled, then run) or a
/// hand-built set-join plan.
struct BulkQuery {
  Family family = Family::kOther;
  const Statement* statement = nullptr;
  engine::PhysicalPlan plan;
  core::Relation expected{0};
  std::size_t bound = 0;  // Division: |R| + |S| (max_intermediate bound).
};

struct BulkSetup {
  std::unique_ptr<Data> data;
  std::shared_ptr<txn::VersionedDatabase> head;
  txn::SnapshotPtr snapshot;
  engine::EngineOptions options;
  std::vector<BulkQuery> queries;
};

util::Result<ra::ExprPtr> Compile(const std::string& text, const core::Schema& schema,
                                  Tracer* tracer, std::uint64_t parent,
                                  std::uint64_t statement) {
  if (sql::LooksLikeSql(text)) {
    ScopedSpan span(tracer, "sql.compile", parent, statement);
    return sql::Compile(text, schema);
  }
  ScopedSpan span(tracer, "ra.parse", parent, statement);
  return ra::Parse(text, schema);
}

/// Runs one bulk query; returns the engine result (an error Result when
/// compile or run failed).
util::Result<engine::RunResult> RunBulkQuery(const engine::Engine& engine,
                                             const BulkQuery& q,
                                             const txn::Snapshot& snapshot,
                                             Tracer* tracer, std::uint64_t parent,
                                             std::uint64_t statement) {
  if (q.statement != nullptr) {
    auto expr = Compile(q.statement->text, snapshot.schema(), tracer, parent, statement);
    if (!expr.ok()) return util::Result<engine::RunResult>::Error(expr.error());
    ScopedSpan span(tracer, "engine.run", parent, statement);
    return engine.Run(*expr, snapshot);
  }
  ScopedSpan span(tracer, "engine.run", parent, statement);
  return engine.Run(q.plan, snapshot);
}

BulkSetup SetUpBulk(const std::string& workload, std::uint64_t seed) {
  BulkSetup b;
  b.data = std::make_unique<Data>(MakeData(workload, seed));
  b.head = std::make_shared<txn::VersionedDatabase>(b.data->db);
  b.snapshot = b.head->snapshot();
  b.options = WorkloadOptions(workload);
  for (const Statement& st : b.data->statements) {
    BulkQuery q;
    q.family = st.family;
    q.statement = &st;
    b.queries.push_back(std::move(q));
  }
  for (const PlanCase& pc : b.data->set_joins) {
    BulkQuery q;
    q.family = pc.family;
    std::string algorithm;
    q.plan = BuildPlan(pc, *b.snapshot, &algorithm);
    b.queries.push_back(std::move(q));
  }
  // Warm-up: one pass (fills the snapshot's lazily computed statistics).
  const engine::Engine engine(b.options);
  for (const BulkQuery& q : b.queries) {
    (void)RunBulkQuery(engine, q, *b.snapshot, nullptr, 0, 0);
  }
  return b;
}

/// The independent results of every bulk query (outside the timed window).
void ComputeBulkExpected(BulkSetup* b) {
  const PlanCase* next_plan = b->data->set_joins.data();
  for (BulkQuery& q : b->queries) {
    Expected e;
    if (q.statement != nullptr) {
      e = ExpectedFor(*q.statement, *b->snapshot);
      if (q.family == Family::kDivision) {
        q.bound = b->snapshot->relation(q.statement->inputs[0]).size() +
                  b->snapshot->relation(q.statement->inputs[1]).size();
      }
    } else {
      e = ExpectedFor(next_plan->family, {next_plan->r, next_plan->s}, nullptr,
                      *b->snapshot);
      ++next_plan;
    }
    q.expected = ToRelation(e.rows, e.arity);
  }
}

/// Checks one bulk result: the rows, and the intermediate-size
/// properties (a routed division stays within |R| + |S|; the triangle
/// within its AGM bound). Returns an empty string when it passes.
std::string CheckBulkResult(const BulkQuery& q, const util::Result<engine::RunResult>& run) {
  if (!run.ok()) return "engine error: " + run.error();
  if (run->relation != q.expected) return "wrong rows";
  if (q.family == Family::kDivision && run->stats.max_intermediate > q.bound) {
    return "wrong: division intermediate above |R| + |S|";
  }
  if (q.family == Family::kTriangle &&
      (!run->stats.has_agm_bound ||
       static_cast<double>(run->stats.max_intermediate) > run->stats.agm_bound)) {
    return "wrong: triangle intermediate above the AGM bound";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Probes for the traced run: kernels vs engine, commits and statistics.
// ---------------------------------------------------------------------------

struct KernelProbe {
  double division_kernel_ms = 0, containment_kernel_ms = 0, equality_kernel_ms = 0;
  double division_engine_ms = 0, containment_engine_ms = 0, equality_engine_ms = 0;
  double division_pooled_ms = 0, containment_pooled_ms = 0, equality_pooled_ms = 0;
  double division_serial_ms = 0, containment_serial_ms = 0, equality_serial_ms = 0;
  double max_intermediate = 0;
  double triangle_over_agm = 0;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;

  /// One checked result: a wrong one is a failure and a wrong answer.
  void Count(bool right) {
    ++attempted;
    if (!right) {
      ++failed;
      ++wrong;
    }
  }
};

// Median over `passes` of fn()'s span, in ms.
template <typename Fn>
double MedianMs(int passes, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < passes; ++i) ms.push_back(fn() / 1000.0);
  return Median(std::move(ms));
}

KernelProbe RunKernelProbe(const Data& data, const txn::Snapshot& snapshot,
                           const engine::EngineOptions& workload_options,
                           Tracer* tracer) {
  constexpr int kPasses = 3;
  KernelProbe p;
  const engine::Engine engine(workload_options);
  const engine::Engine serial(workload_options.WithThreads(1));
  const engine::Engine pooled(engine::EngineOptions::Parallel(PoolWidth()).WithMultiway(
      workload_options.multiway));
  auto check = [&](const util::Result<engine::RunResult>& run, const Rows& want) {
    if (run.ok()) {
      p.Count(SameRows(run->relation, want));
    } else {
      ++p.attempted;
      ++p.failed;
    }
  };

  for (const auto& [r_name, s_name] : data.divisions) {
    const core::Relation& r = snapshot.relation(r_name);
    const core::Relation& s = snapshot.relation(s_name);
    const Rows want = BruteDivide(PairsOf(r), ValuesOf(s), false);
    double best = 0.0;
    for (auto algorithm : setjoin::AllDivisionAlgorithms()) {
      if (algorithm == setjoin::DivisionAlgorithm::kClassicRa) continue;  // Quadratic.
      const double ms = MedianMs(kPasses, [&] {
        ScopedSpan span(tracer, "setjoin.divide");
        const auto out = setjoin::Divide(r, s, algorithm);
        const double us = span.End();
        p.Count(SameRows(out, want));
        return us;
      });
      if (best == 0.0 || ms < best) best = ms;
    }
    p.division_kernel_ms += best;
    const auto expr = setjoin::ClassicDivisionExpr(r_name, s_name);
    engine::PlanStats stats;
    auto timed = [&](const engine::Engine& e) {
      return MedianMs(kPasses, [&] {
        ScopedSpan span(tracer, "engine.run");
        auto run = e.Run(expr, snapshot);
        const double us = span.End();
        check(run, want);
        if (run.ok()) stats = run->stats;
        return us;
      });
    };
    p.division_engine_ms += timed(engine);
    p.max_intermediate += static_cast<double>(stats.max_intermediate);
    p.division_serial_ms += timed(serial);
    p.division_pooled_ms += timed(pooled);
  }

  for (const PlanCase& pc : data.set_joins) {
    const bool containment = pc.family == Family::kContainment;
    const core::Relation& r = snapshot.relation(pc.r);
    const core::Relation& s = snapshot.relation(pc.s);
    const Rows want = containment ? BruteContainment(PairsOf(r), PairsOf(s))
                                  : BruteEquality(PairsOf(r), PairsOf(s));
    const auto gr = setjoin::AsGrouped(r);
    const auto gs = setjoin::AsGrouped(s);
    double best = 0.0;
    auto kernel = [&](auto&& call) {
      const double ms = MedianMs(kPasses, [&] {
        ScopedSpan span(tracer, containment ? "setjoin.containment" : "setjoin.equality");
        const auto out = call();
        const double us = span.End();
        p.Count(SameRows(out, want));
        return us;
      });
      if (best == 0.0 || ms < best) best = ms;
    };
    if (containment) {
      for (auto algorithm : setjoin::AllContainmentAlgorithms()) {
        kernel([&] { return setjoin::SetContainmentJoin(gr, gs, algorithm); });
      }
    } else {
      for (auto algorithm : {setjoin::EqualityJoinAlgorithm::kNestedLoop,
                             setjoin::EqualityJoinAlgorithm::kCanonicalHash}) {
        kernel([&] { return setjoin::SetEqualityJoin(gr, gs, algorithm); });
      }
    }
    std::string algorithm;
    const engine::PhysicalPlan plan = BuildPlan(pc, snapshot, &algorithm);
    engine::PlanStats stats;
    auto timed = [&](const engine::Engine& e) {
      return MedianMs(kPasses, [&] {
        ScopedSpan span(tracer, "engine.run");
        auto run = e.Run(plan, snapshot);
        const double us = span.End();
        check(run, want);
        if (run.ok()) stats = run->stats;
        return us;
      });
    };
    const double engine_ms = timed(engine);
    p.max_intermediate += static_cast<double>(stats.max_intermediate);
    const double serial_ms = timed(serial);
    const double pooled_ms = timed(pooled);
    (containment ? p.containment_kernel_ms : p.equality_kernel_ms) += best;
    (containment ? p.containment_engine_ms : p.equality_engine_ms) += engine_ms;
    (containment ? p.containment_serial_ms : p.equality_serial_ms) += serial_ms;
    (containment ? p.containment_pooled_ms : p.equality_pooled_ms) += pooled_ms;
  }

  for (const auto& names : data.triangles) {
    const Rows want = BruteTriangle(PairsOf(snapshot.relation(names[0])),
                                    PairsOf(snapshot.relation(names[1])),
                                    PairsOf(snapshot.relation(names[2])));
    auto expr = sql::Compile(TriangleSql(names[0], names[1], names[2]), snapshot.schema());
    if (!expr.ok()) {
      ++p.attempted;
      ++p.failed;
      continue;
    }
    const engine::Engine multiway(workload_options.WithMultiway());
    ScopedSpan span(tracer, "engine.run");
    auto run = multiway.Run(*expr, snapshot);
    span.End();
    check(run, want);
    if (run.ok()) {
      p.max_intermediate += static_cast<double>(run->stats.max_intermediate);
      p.triangle_over_agm = Ratio(static_cast<double>(run->stats.max_intermediate),
                                  run->stats.agm_bound);
    }
  }
  return p;
}

constexpr std::size_t kProbeChunks = 10;

struct TxnProbe {
  std::vector<double> commit_us, snapshot_us, warmup_ms;
  double stats_compute_ms = 0;
};

/// Commits `commits` changes of the rotation (the writer's own, on
/// serve-write) and, with `warm`, times Snapshot::Get over every relation
/// of each newly published snapshot.
TxnProbe RunTxnProbe(txn::VersionedDatabase& head, const Data& data,
                     std::uint64_t seed, std::size_t commits, bool warm,
                     Tracer* tracer) {
  TxnProbe t;
  CommitRotation rotation(data.write_targets, seed ^ 0x5bd1e995ULL);
  for (std::size_t i = 0; i < commits; ++i) {
    // The commits come in kProbeChunks chunks 100 ms apart: a few
    // milliseconds of microsecond commits otherwise fall in one phase of
    // the machine's CPU availability (see FastDecile).
    if (i > 0 && i % (commits / kProbeChunks) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    {
      ScopedSpan span(tracer, "txn.commit");
      (void)rotation.Apply(head, i);
      t.commit_us.push_back(span.End());
    }
    ScopedSpan span(tracer, "txn.snapshot");
    const auto snapshot = head.snapshot();
    t.snapshot_us.push_back(span.End());
    if (warm) {
      ScopedSpan warm_span(tracer, "stats.snapshot_warmup");
      for (const auto& name : snapshot->schema().Names()) (void)snapshot->Get(name);
      t.warmup_ms.push_back(warm_span.End() / 1000.0);
    }
  }
  if (warm) {
    const auto snapshot = head.snapshot();
    std::vector<double> ms;
    for (int pass = 0; pass < 3; ++pass) {
      ScopedSpan span(tracer, "stats.compute");
      for (const auto& name : snapshot->schema().Names()) {
        (void)stats::ComputeRelationStats(snapshot->relation(name));
      }
      ms.push_back(span.End() / 1000.0);
    }
    t.stats_compute_ms = Median(std::move(ms));
  }
  return t;
}

/// Commits the probe makes: ten turns of the bulk rotation (five
/// relations, the 1.6·10^6-tuple dividend among them), or 500 turns of
/// the serve rotation (relations of 10^2 to 10^5 tuples; a commit to the
/// small ones takes microseconds).
std::size_t CommitCount(const Data& data, const std::string& workload) {
  return data.write_targets.size() * (workload.rfind("bulk", 0) == 0 ? 10 : 500);
}

// ---------------------------------------------------------------------------
// The statement replay of the traced run: per op, the client round trip
// and then the calls the server's session loop makes, in process. The
// in-process calls go through caches of their own, the same kind and size
// as the server's: the server's caches see only the round trips, and the
// replay's see the same stream, so each side meets the cache outcomes the
// stream gives rather than hits left by the other side.
// ---------------------------------------------------------------------------

struct ReplayStats {
  std::vector<double> roundtrip_us, wire_us, parse_us, digest_us, csv_us,
      compile_sql_us, parse_ra_us, run_us, plan_us;
  // Counted from the cache= field of the server's OK headers.
  std::uint64_t statements = 0, result_hits = 0, plan_lookups = 0, plan_hits = 0,
                revalidations = 0;
  double traced_ms = 0, untraced_ms = 0;
};

/// Counts one served statement's cache outcome, as its OK header reports it.
void CountCacheOutcome(const std::string& cache, ReplayStats* out) {
  ++out->statements;
  if (cache == "result-hit") {
    ++out->result_hits;
    return;
  }
  ++out->plan_lookups;
  const bool revalidated = cache == "revalidated" || cache == "repicked";
  if (cache == "hit" || revalidated) ++out->plan_hits;
  if (revalidated) ++out->revalidations;
}

void ReplayOp(const Data& data, const Op& op, txn::VersionedDatabase& head,
              const engine::Engine& engine,
              std::unordered_map<std::uint32_t, engine::PreparedQuery>& prepared,
              Connection& conn, Tracer* tracer, bool record, ReplayStats* out) {
  const Statement& st = data.statements[op.statement];
  const std::string line = RequestLine(st, op);
  const std::uint64_t statement_id = tracer->enabled() ? tracer->NextId() : 0;

  // The round trip, checked like every served response.
  ScopedSpan rt(tracer, "server.roundtrip", 0, statement_id);
  auto response = conn.client.Roundtrip(line);
  const double rt_us = rt.End();
  Sample sample;
  sample.statement = op.statement;
  sample.ms = rt_us / 1000.0;
  if (response.ok()) {
    sample.transport_ok = true;
    sample.header = response->header;
    // Every pass, like the commits they are divided by.
    if (sample.header.ok) CountCacheOutcome(sample.header.cache, out);
  }
  conn.samples.push_back(std::move(sample));

  // The session loop's calls for the same request.
  ScopedSpan session(tracer, "server.session", 0, statement_id);
  const std::uint64_t parent = session.id();
  double session_us = 0;
  ScopedSpan parse_span(tracer, "server.request_parse", parent, statement_id);
  auto request = server::ParseRequest(line);
  const double parse_us = parse_span.End();
  session_us += parse_us;
  if (!request.ok()) return;
  ScopedSpan snap_span(tracer, "txn.snapshot", parent, statement_id);
  const txn::SnapshotPtr snapshot = head.snapshot();
  session_us += snap_span.End();
  util::Result<engine::RunResult> run = util::Result<engine::RunResult>::Error("unset");
  ra::ExprPtr expr;
  double compile_us = 0;
  if (op.prepared) {
    auto it = prepared.find(op.statement);
    if (it == prepared.end()) {
      auto compiled = Compile(st.text, snapshot->schema(), nullptr, 0, 0);
      if (!compiled.ok()) return;
      auto handle = engine.Prepare(*compiled, *snapshot);
      if (!handle.ok()) return;
      it = prepared.emplace(op.statement, std::move(*handle)).first;
    }
    expr = it->second.expr();
    ScopedSpan run_span(tracer, "engine.run", parent, statement_id);
    run = engine.Run(it->second, *snapshot);
    const double us = run_span.End();
    session_us += us;
    if (record) out->run_us.push_back(us);
  } else {
    const bool is_sql = sql::LooksLikeSql(st.text);
    ScopedSpan compile_span(tracer, is_sql ? "sql.compile" : "ra.parse", parent,
                            statement_id);
    auto compiled = is_sql ? sql::Compile(st.text, snapshot->schema())
                           : ra::Parse(st.text, snapshot->schema());
    compile_us = compile_span.End();
    session_us += compile_us;
    if (!compiled.ok()) return;
    expr = *compiled;
    if (record) (is_sql ? out->compile_sql_us : out->parse_ra_us).push_back(compile_us);
    ScopedSpan run_span(tracer, "engine.run", parent, statement_id);
    run = engine.Run(expr, *snapshot);
    const double us = run_span.End();
    session_us += us;
    if (record) out->run_us.push_back(us);
  }
  if (!run.ok()) return;
  ScopedSpan digest_span(tracer, "server.digest", parent, statement_id);
  const auto digest = server::RelationDigest(run->relation);
  const double digest_us = digest_span.End();
  session_us += digest_us;
  ScopedSpan csv_span(tracer, "core.csv", parent, statement_id);
  const std::string csv = core::WriteRelationCsv(run->relation, nullptr);
  const double csv_us = csv_span.End();
  session_us += csv_us;
  session.End();
  (void)digest;
  (void)csv;

  // Planning alone, outside the session loop's own sequence.
  if (expr != nullptr) {
    ScopedSpan plan_span(tracer, "engine.plan", 0, statement_id);
    auto plan = engine.Plan(expr, *snapshot);
    const double us = plan_span.End();
    if (record && plan.ok()) out->plan_us.push_back(us);
  }

  if (!record) return;
  out->roundtrip_us.push_back(rt_us);
  out->wire_us.push_back(rt_us - session_us);
  out->parse_us.push_back(parse_us);
  out->digest_us.push_back(digest_us);
  out->csv_us.push_back(csv_us);
}


// ---------------------------------------------------------------------------
// The runs.
// ---------------------------------------------------------------------------

constexpr int kSetups = 5;
constexpr int kBulkSetups = 3;  // A bulk setup takes 1-2 s.
constexpr int kSlices = 20;

/// `family_ms[f]` holds one value per slice or pass.
void AddFamilyMetrics(const std::map<Family, std::vector<double>>& family_ms,
                      RunReport* report) {
  const std::pair<Family, const char*> names[] = {
      {Family::kDivision, "division_ms"},
      {Family::kContainment, "containment_ms"},
      {Family::kEquality, "equality_ms"},
      {Family::kTriangle, "triangle_ms"}};
  for (const auto& [family, name] : names) {
    auto it = family_ms.find(family);
    report->Add(name, it == family_ms.end() ? 0.0 : FastDecile(it->second), "ms");
  }
}

void AddLayerMetrics(const ReplayStats& r, const KernelProbe& k, const TxnProbe& t,
                     double revalidations_per_commit, RunReport* report) {
  report->Add("server.roundtrip_us", Median(r.roundtrip_us), "us");
  report->Add("server.wire_us", Median(r.wire_us), "us");
  report->Add("server.request_parse_us", Median(r.parse_us), "us");
  report->Add("server.digest_us", Median(r.digest_us), "us");
  report->Add("core.csv_us", Median(r.csv_us), "us");
  report->Add("sql.compile_us", Median(r.compile_sql_us), "us");
  report->Add("ra.parse_us", Median(r.parse_ra_us), "us");
  report->Add("engine.run_us", Median(r.run_us), "us");
  report->Add("engine.plan_us", Median(r.plan_us), "us");
  report->Add("engine.result_hit_ratio",
              Ratio(static_cast<double>(r.result_hits), static_cast<double>(r.statements)),
              "hits/statements");
  report->Add("engine.plan_hit_ratio",
              Ratio(static_cast<double>(r.plan_hits), static_cast<double>(r.plan_lookups)),
              "hits/lookups");
  report->Add("engine.revalidations_per_commit", revalidations_per_commit, "count");
  report->Add("stats.snapshot_warmup_ms", Median(t.warmup_ms), "ms");
  report->Add("stats.compute_ms", t.stats_compute_ms, "ms");
  report->Add("txn.commit_us", Median(t.commit_us), "us");
  report->Add("txn.snapshot_us", Median(t.snapshot_us), "us");
  report->Add("setjoin.division_kernel_ms", k.division_kernel_ms, "ms");
  report->Add("setjoin.containment_kernel_ms", k.containment_kernel_ms, "ms");
  report->Add("setjoin.equality_kernel_ms", k.equality_kernel_ms, "ms");
  report->Add("engine.division_over_kernel",
              Ratio(k.division_engine_ms, k.division_kernel_ms), "ratio");
  report->Add("engine.containment_over_kernel",
              Ratio(k.containment_engine_ms, k.containment_kernel_ms), "ratio");
  report->Add("engine.equality_over_kernel",
              Ratio(k.equality_engine_ms, k.equality_kernel_ms), "ratio");
  report->Add("engine.max_intermediate_tuples", k.max_intermediate, "tuples");
  report->Add("multiway.intermediate_over_agm", k.triangle_over_agm, "ratio");
  report->Add("parallel.division_speedup",
              Ratio(k.division_serial_ms, k.division_pooled_ms), "ratio");
  report->Add("parallel.containment_speedup",
              Ratio(k.containment_serial_ms, k.containment_pooled_ms), "ratio");
  report->Add("parallel.equality_speedup",
              Ratio(k.equality_serial_ms, k.equality_pooled_ms), "ratio");
  report->Add("trace.overhead_pct", 100.0 * (Ratio(r.traced_ms, r.untraced_ms) - 1.0),
              "%");
}

/// The traced run's common part: the statement replay over `connections`
/// (a writer committing alongside when given), the kernel, commit and
/// statistics probes, the checks, and the per-layer metrics.
void RunTraced(const RunConfig& config, const Data& data, txn::VersionedDatabase& head,
               const engine::EngineOptions& server_options,
               std::vector<std::unique_ptr<Connection>>& connections, bool writes,
               Tracer& tracer, RunReport* report) {
  VersionLog versions(*head.snapshot());
  Writer writer(&head, data.write_targets, config.seed, &versions, &tracer);
  if (writes) writer.Start();
  const auto& plans = *server_options.shared_plan_cache;
  const auto& results = *server_options.result_cache;
  const engine::Engine engine(server_options.WithSharedCaches(
      std::make_shared<engine::SharedPlanCache>(plans.max_entries(), plans.max_bytes()),
      std::make_shared<engine::ResultCache>(results.max_entries(), results.max_bytes())));
  Tracer untraced(false);
  std::vector<std::unordered_map<std::uint32_t, engine::PreparedQuery>> prepared(
      connections.size());
  for (auto& conn : connections) conn->samples.clear();
  ReplayStats replay;
  const auto start = Clock::now();
  const std::size_t commits_before = writer.commits();
  // Whole passes: pass 0 warms up unrecorded, then passes alternate
  // between a disabled tracer and the run's own (ending on the latter), so
  // the tracing overhead compares the same replay with and without spans.
  for (int pass = 0;; ++pass) {
    // A new pair of passes starts only while time remains.
    if (pass >= 3 && pass % 2 == 1 && Micros(start, Clock::now()) >= config.seconds * 1e6) {
      break;
    }
    const bool record = pass > 0 && pass % 2 == 0;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < connections.size(); ++c) {
      for (const Op& op : connections[c]->round) {
        ReplayOp(data, op, head, engine, prepared[c], *connections[c],
                 record ? &tracer : &untraced, record, &replay);
      }
    }
    if (pass > 0) {
      (record ? replay.traced_ms : replay.untraced_ms) += Micros(t0, Clock::now()) / 1000.0;
    }
  }
  const std::size_t commits = writer.commits() - commits_before;
  writer.Stop();

  const KernelProbe kp = RunKernelProbe(data, *head.snapshot(),
                                        WorkloadOptions(config.workload), &tracer);
  TxnProbe tp = RunTxnProbe(head, data, config.seed, CommitCount(data, config.workload), true,
                            &tracer);
  for (double ms : writer.commit_ms()) tp.commit_us.push_back(ms * 1000.0);

  std::vector<const SampleStream*> streams;
  for (const auto& conn : connections) streams.push_back(&conn->samples);
  AddProblems(CheckSamples(data, versions, streams), report);
  report->attempted += kp.attempted + writer.commit_ms().size() + tp.commit_us.size();
  report->failed += kp.failed;
  if (kp.wrong > 0) report->correct = false;

  AddLayerMetrics(replay, kp, tp,
                  writes ? Ratio(static_cast<double>(replay.revalidations),
                                 static_cast<double>(commits))
                         : 0.0,
                  report);
  if (!config.trace_out.empty() && !tracer.WriteJsonLines(config.trace_out)) {
    report->problems.push_back("could not write " + config.trace_out);
  }
}

RunReport RunServe(const RunConfig& config) {
  RunReport report;
  Tracer tracer(config.trace);

  // Set up kSetups times (data, head, server, connections, warm-up) and
  // keep the last; setup_s is the median.
  std::vector<double> setup_s;
  ServeSetup s;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    if (s.server != nullptr) s.server->Stop();
    s = ServeSetup{};
    const auto t0 = Clock::now();
    s = SetUpServe(config.workload, config.seed);
    setup_s.push_back(Micros(t0, Clock::now()) / 1e6);
    if (!s.error.empty()) {
      report.correct = false;
      report.attempted = report.failed = 1;
      report.problems.push_back(s.error);
      return report;
    }
  }
  const Data& data = *s.data;
  const bool writes = config.workload == "serve-write";

  if (config.trace) {
    RunTraced(config, data, *s.head, s.options, s.connections, writes, tracer, &report);
    s.server->Stop();
    return report;
  }

  VersionLog versions(*s.head->snapshot());
  Writer writer(s.head.get(), data.write_targets, config.seed, &versions, nullptr);
  if (writes) writer.Start();
  // The window is kSlices slices, each on fresh connections (so fresh
  // client and session threads, placed anew by the scheduler), and every
  // figure is computed per slice (see FastDecile). Closed loop: each
  // connection sends its next statement when the last response is in,
  // and stops at the end of a round once the slice is up.
  std::vector<std::unique_ptr<Connection>> streams_done;
  std::vector<double> p50, p99, qps;
  std::map<Family, std::vector<double>> family_ms;
  for (int slice = 0; slice < kSlices; ++slice) {
    // Connect (and prepare) concurrently: serve-write prepares ~200
    // statements per connection.
    std::vector<util::Result<std::unique_ptr<Connection>>> opened;
    for (std::size_t c = 0; c < s.connections.size(); ++c) {
      opened.push_back(util::Result<std::unique_ptr<Connection>>::Error("unset"));
    }
    std::vector<std::thread> connecting;
    for (std::size_t c = 0; c < s.connections.size(); ++c) {
      connecting.emplace_back([&, c] {
        opened[c] = Connect(data, s.server->port(), s.connections[c]->round);
      });
    }
    for (auto& t : connecting) t.join();
    std::vector<std::unique_ptr<Connection>> conns;
    for (auto& conn : opened) {
      if (!conn.ok()) {
        report.problems.push_back(conn.error());
        ++report.attempted;
        ++report.failed;
        continue;
      }
      // Full rows are kept (and checked) in the first slice only.
      if (slice > 0) std::fill((*conn)->rows_kept.begin(), (*conn)->rows_kept.end(), true);
      conns.push_back(std::move(*conn));
    }
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::microseconds(static_cast<long>(
                                      config.seconds * 1e6 / kSlices));
    std::vector<std::thread> threads;
    for (auto& conn : conns) {
      threads.emplace_back([&data, deadline, c = conn.get()] {
        while (Clock::now() < deadline) {
          for (const Op& op : c->round) SendOp(*c, data, op);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed_s = Micros(start, Clock::now()) / 1e6;
    std::vector<double> slice_ms;
    std::map<Family, std::vector<double>> slice_family_ms;
    for (auto& conn : conns) {
      conn->client.Close();
      for (const Sample& sample : conn->samples) {
        slice_ms.push_back(sample.ms);
        slice_family_ms[data.statements[sample.statement].family].push_back(sample.ms);
      }
      streams_done.push_back(std::move(conn));
    }
    p50.push_back(Quantile(slice_ms, 0.5));
    p99.push_back(Quantile(slice_ms, 0.99));
    qps.push_back(Ratio(static_cast<double>(slice_ms.size()), elapsed_s));
    for (auto& [family, ms] : slice_family_ms) family_ms[family].push_back(Median(ms));
  }
  writer.Stop();

  // Commits: the writer's, in groups of one second; without a writer, the
  // same rotation once the window has closed, in the probe's chunks.
  std::vector<double> commit_ms = GroupMedians(
      writer.commit_ms(), static_cast<std::size_t>(1000.0 / kWriterPeriodMs));
  report.attempted += writer.commit_ms().size();
  if (!writes) {
    const auto probe = RunTxnProbe(*s.head, data, config.seed,
                                   CommitCount(data, config.workload), false, nullptr);
    std::vector<double> ms;
    for (double us : probe.commit_us) ms.push_back(us / 1000.0);
    commit_ms = GroupMedians(ms, ms.size() / kProbeChunks);
    report.attempted += ms.size();
  }
  const double rss = PeakRssMb();

  report.Add("setup_s", FastDecile(setup_s), "s");
  report.Add("query_p50_ms", FastDecile(p50), "ms");
  report.Add("query_p99_ms", FastDecile(p99), "ms");
  report.Add("throughput_qps", FastDecile(qps, true), "statements/s");
  report.Add("commit_p50_ms", FastDecile(commit_ms), "ms");
  AddFamilyMetrics(family_ms, &report);
  report.Add("peak_rss_mb", rss, "MB");

  std::vector<const SampleStream*> streams;
  for (const auto& conn : streams_done) streams.push_back(&conn->samples);
  AddProblems(CheckSamples(data, versions, streams), &report);
  s.server->Stop();
  return report;
}

RunReport RunBulk(const RunConfig& config) {
  RunReport report;
  Tracer tracer(config.trace);

  std::vector<double> setup_s;
  BulkSetup b;
  for (int i = 0; i < (config.trace ? 1 : kBulkSetups); ++i) {
    b = BulkSetup{};
    const auto t0 = Clock::now();
    b = SetUpBulk(config.workload, config.seed);
    setup_s.push_back(Micros(t0, Clock::now()) / 1e6);
  }
  ComputeBulkExpected(&b);

  if (config.trace) {
    // The front end on the bulk statements: a server over the same head,
    // one connection replaying every text statement in order. The bulk
    // workload runs without a result cache; a server always has one, so
    // it gets one with a one-byte budget, which keeps no result.
    const engine::EngineOptions options = b.options.WithSharedCaches(
        std::make_shared<engine::SharedPlanCache>(kCacheEntries, 0),
        std::make_shared<engine::ResultCache>(1, 1));
    server::Server srv(b.head, options, nullptr);
    auto port = srv.Start(0);
    auto client = port.ok() ? server::Client::Connect("127.0.0.1", *port)
                            : util::Result<server::Client>::Error(port.error());
    if (!client.ok()) {
      report.correct = false;
      report.attempted = report.failed = 1;
      report.problems.push_back("server: " + client.error());
      return report;
    }
    std::vector<std::unique_ptr<Connection>> connections;
    connections.push_back(std::make_unique<Connection>());
    connections[0]->client = std::move(*client);
    connections[0]->rows_kept.assign(b.data->statements.size(), false);
    for (std::size_t i = 0; i < b.data->statements.size(); ++i) {
      connections[0]->round.push_back({static_cast<std::uint32_t>(i), false});
    }
    RunTraced(config, *b.data, *b.head, options, connections, false, tracer, &report);
    srv.Stop();
    return report;
  }

  // Whole passes over every query until time is up; each query's result
  // is checked right after its timed call.
  const engine::Engine engine(b.options);
  std::map<Family, std::vector<double>> family_ms;
  std::map<std::string, std::uint64_t> problems;
  std::uint64_t wrong = 0;
  const auto deadline =
      Clock::now() + std::chrono::microseconds(static_cast<long>(config.seconds * 1e6));
  std::vector<double> p50, p99, qps;
  while (Clock::now() < deadline) {
    std::map<Family, double> pass_ms;
    std::vector<double> query_ms;
    double pass_total_ms = 0;
    for (const BulkQuery& q : b.queries) {
      const auto t0 = Clock::now();
      auto run = RunBulkQuery(engine, q, *b.snapshot, nullptr, 0, 0);
      const double ms = Micros(t0, Clock::now()) / 1000.0;
      query_ms.push_back(ms);
      pass_ms[q.family] += ms;
      pass_total_ms += ms;
      ++report.attempted;
      const std::string problem = CheckBulkResult(q, run);
      if (!problem.empty()) {
        ++report.failed;
        ++problems[problem];
        if (problem.rfind("wrong", 0) == 0) ++wrong;
      }
    }
    for (const auto& [family, ms] : pass_ms) family_ms[family].push_back(ms);
    p50.push_back(Quantile(query_ms, 0.5));
    p99.push_back(Quantile(query_ms, 0.99));
    qps.push_back(Ratio(static_cast<double>(query_ms.size()), pass_total_ms / 1000.0));
  }
  const auto probe = RunTxnProbe(*b.head, *b.data, config.seed,
                                 CommitCount(*b.data, config.workload), false, nullptr);
  std::vector<double> commit_ms;
  for (double us : probe.commit_us) commit_ms.push_back(us / 1000.0);
  report.attempted += commit_ms.size();
  if (wrong > 0) report.correct = false;
  for (const auto& [problem, count] : problems) {
    report.problems.push_back(problem + " x" + std::to_string(count));
  }

  // Each figure per pass (per chunk of the commit probe), then the fast
  // decile over the run's passes (see FastDecile).
  report.Add("setup_s", FastDecile(setup_s), "s");
  report.Add("query_p50_ms", FastDecile(p50), "ms");
  report.Add("query_p99_ms", FastDecile(p99), "ms");
  report.Add("throughput_qps", FastDecile(qps, true), "statements/s");
  report.Add("commit_p50_ms",
             FastDecile(GroupMedians(commit_ms, commit_ms.size() / kProbeChunks)), "ms");
  AddFamilyMetrics(family_ms, &report);
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

// ---------------------------------------------------------------------------
// The checker's own test.
// ---------------------------------------------------------------------------

int CheckSelf(bool condition, const char* what) {
  std::fprintf(stderr, "selftest %s: %s\n", condition ? "ok  " : "FAIL", what);
  return condition ? 0 : 1;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "serve-write" || name == "bulk";
}

RunReport RunWorkload(const RunConfig& config) {
  if (IsServe(config.workload)) return RunServe(config);
  return RunBulk(config);
}

int SelfTest() {
  int broken = 0;
  ServeSetup s = SetUpServe("serve-read", 7);
  if (!s.error.empty()) return CheckSelf(false, s.error.c_str());
  const Data& data = *s.data;
  VersionLog versions(*s.head->snapshot());

  // A served statement with several rows, sent once and checked.
  Connection& conn = *s.connections[0];
  std::fill(conn.rows_kept.begin(), conn.rows_kept.end(), false);
  conn.samples.clear();
  for (std::uint32_t i = 0; i < data.statements.size() && conn.samples.empty(); ++i) {
    SendOp(conn, data, {i, false});
    if (conn.samples.back().header.rows < 3) conn.samples.clear();
  }
  broken += CheckSelf(!conn.samples.empty(), "found a statement with 3+ rows");
  if (conn.samples.empty()) return broken;
  const Sample good = conn.samples.back();
  const Expected expected = ExpectedFor(data.statements[good.statement], *s.head->snapshot());
  broken += CheckSelf(CheckResponse(good, expected).empty(), "a correct response passes");

  Sample dropped = good;
  dropped.rows.pop_back();
  broken += CheckSelf(!CheckResponse(dropped, expected).empty(), "one row dropped fails");
  dropped.header.rows -= 1;
  broken += CheckSelf(!CheckResponse(dropped, expected).empty(),
                      "one row dropped, header count adjusted, fails");
  Sample changed = good;
  changed.rows[0] += "1";
  broken += CheckSelf(!CheckResponse(changed, expected).empty(), "one value changed fails");
  Sample digest = good;
  digest.has_rows = false;
  digest.header.digest[0] = digest.header.digest[0] == '0' ? '1' : '0';
  broken += CheckSelf(!CheckResponse(digest, expected).empty(), "a wrong digest fails");
  Sample error = good;
  error.header.ok = false;
  error.header.verb = "ERR";
  broken += CheckSelf(!CheckResponse(error, expected).empty(), "an ERR reply fails");

  // The run-level accounting: one corrupted sample among good ones is
  // exactly one failure and a wrong answer; a version going backwards too.
  SampleStream stream = {good, good, dropped, good};
  auto outcome = CheckSamples(data, versions, {&stream});
  broken += CheckSelf(outcome.checked == 4 && outcome.failed == 1 && outcome.wrong == 1,
                      "a dropped row is counted as one failed operation");
  SampleStream clean = {good, good};
  outcome = CheckSamples(data, versions, {&clean});
  broken += CheckSelf(outcome.failed == 0, "clean samples count no failure");
  SampleStream backwards = {good, good};
  backwards[0].header.version = 5;
  backwards[0].has_rows = false;
  outcome = CheckSamples(data, versions, {&backwards});
  broken += CheckSelf(outcome.failed >= 1, "a version going backwards fails");
  s.server->Stop();

  // Bulk: a division result with one tuple dropped is a wrong result.
  BulkQuery q;
  q.family = Family::kDivision;
  const Statement division{DivisionSql("R", "S"), Family::kDivision, nullptr, {"R", "S"}};
  q.statement = &division;
  const auto snapshot = s.head->snapshot();
  const Expected e = ExpectedFor(division, *snapshot);
  q.expected = ToRelation(e.rows, e.arity);
  q.bound = snapshot->relation("R").size() + snapshot->relation("S").size();
  auto run = RunBulkQuery(engine::Engine(WorkloadOptions("bulk")), q, *snapshot, nullptr, 0, 0);
  broken += CheckSelf(run.ok() && CheckBulkResult(q, run).empty(),
                      "a correct bulk division passes");
  if (run.ok() && run->relation.size() > 0) {
    auto rows = RowsOf(run->relation);
    rows.pop_back();
    util::Result<engine::RunResult> corrupted = *run;
    corrupted->relation = ToRelation(rows, 1);
    broken += CheckSelf(!CheckBulkResult(q, corrupted).empty(),
                        "a bulk division with one tuple dropped fails");
  }
  Rows triangle_want = BruteTriangle({{1, 2}}, {{2, 3}}, {{3, 1}});
  broken += CheckSelf(triangle_want == Rows{{1, 2, 2, 3, 3, 1}},
                      "brute-force triangle finds the one triangle");
  broken += CheckSelf(BruteContainment({{1, 5}, {1, 6}, {2, 5}}, {{9, 5}, {8, 6}, {8, 7}}) ==
                          Rows{{1, 9}, {2, 9}},
                      "brute-force containment");
  broken += CheckSelf(BruteEquality({{1, 5}, {1, 6}, {2, 5}}, {{9, 5}, {8, 5}, {8, 6}}) ==
                          Rows{{1, 8}, {2, 9}},
                      "brute-force equality");
  broken += CheckSelf(BruteDivide({{1, 5}, {1, 6}, {2, 5}}, {5, 6}, false) == Rows{{1}},
                      "brute-force division");
  return broken;
}

}  // namespace perfbench
