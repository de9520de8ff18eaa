// serve-stream: the service engine (serve::ServeSweep) end to end, and per
// layer through the benchmark's own replay of each served job.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "analysis/pcc.hpp"
#include "common.hpp"
#include "counting_policy.hpp"
#include "host_speed.hpp"
#include "inputs.hpp"
#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"
#include "serve/report.hpp"
#include "workloads.hpp"

namespace ndfbench {

namespace {

using ndf::CondensedDag;
using ndf::Pmh;

std::string emit(const std::string& name,
                 const std::vector<serve::ServeCell>& cells) {
  std::ostringstream os;
  serve::summary_table(name, cells).print(os);
  serve::write_serve_json(os, name, cells);
  return os.str();
}

struct ServeRun {
  double wall = 0.0;
  std::vector<serve::ServeCell> cells;
  std::size_t condensations = 0;
  std::size_t jobs = 0;  ///< jobs served over all cells
};

ServeRun run_serve_sweep(const serve::ServeScenario& s) {
  serve::ServeSweep sweep(s, 1);
  const double t0 = now_s();
  sweep.run();
  ServeRun out;
  out.wall = now_s() - t0;
  out.cells = sweep.results();
  out.condensations = sweep.condensations_built();
  for (const serve::ServeCell& c : out.cells) out.jobs += c.jobs.size();
  return out;
}

/// The mix as the engine sees it: each distinct workload built and
/// condensed for the serve machine. Building it is the set-up the
/// benchmark times.
struct Mix {
  std::vector<std::unique_ptr<exp::Workload>> workloads;
  std::vector<std::unique_ptr<CondensedDag>> dags;
  std::map<std::string, std::size_t> index;  ///< label -> position
};

Mix build_mix(const serve::ServeScenario& s, const Pmh& m, Spans* spans) {
  Mix mix;
  const std::vector<double> sizes = ndf::level_cache_sizes(m);
  for (const exp::WorkloadSpec& spec : s.mix) {
    const std::size_t i = mix.workloads.size();
    if (!mix.index.emplace(spec.label(), i).second) continue;
    {
      const auto span = open_span(spans, "nd.elaborate", std::int64_t(i));
      mix.workloads.push_back(std::make_unique<exp::Workload>(spec));
    }
    const auto span = open_span(spans, "sched.condense", std::int64_t(i));
    mix.dags.push_back(std::make_unique<CondensedDag>(
        mix.workloads.back()->graph(), sizes, s.sigmas.front()));
  }
  return mix;
}

ndf::SchedOptions base_options(const serve::ServeScenario& s) {
  ndf::SchedOptions opts;
  opts.sigma = s.sigmas.front();
  opts.alpha_prime = s.alpha_prime;
  opts.charge_misses = s.charge_misses;
  return opts;
}

/// Arrival rate × mean isolated service time over the stream's jobs, where
/// a job's service time is its workload's makespan alone on the machine
/// (run_scheduler); the largest over the policies.
double offered_load(const serve::ServeScenario& s, const Pmh& m,
                    const Mix& mix) {
  double worst = 0.0;
  for (const std::string& policy : s.policies) {
    std::vector<double> service;
    for (const auto& w : mix.workloads) {
      ndf::SchedOptions opts = base_options(s);
      opts.seed = s.base_seed;
      service.push_back(
          ndf::run_scheduler(policy, w->graph(), m, opts).makespan);
    }
    double total = 0.0;
    for (const serve::JobSpec& j : s.jobs)
      total += service[mix.index.at(j.workload.label())];
    worst = std::max(worst, serve_stream_rate() * total / double(s.jobs.size()));
  }
  return worst;
}

/// Every job served exactly once, admitted no earlier than it arrived.
void check_cells(const serve::ServeScenario& s,
                 const std::vector<serve::ServeCell>& cells, Checks& checks) {
  for (const serve::ServeCell& c : cells) {
    std::vector<int> seen(s.jobs.size(), 0);
    bool ok = c.jobs.size() == s.jobs.size();
    for (const serve::JobRecord& r : c.jobs) {
      ok = ok && r.job.index < seen.size() && ++seen[r.job.index] == 1 &&
           r.start >= r.job.arrival && r.completion >= r.job.arrival &&
           r.completion >= r.start;
    }
    checks.expect(ok, "serve cell " + c.machine + " " + c.policy +
                          ": every job served once, completion >= arrival");
  }
}

/// Replays each served job through SimCore::reset and run with the
/// engine's options, in the engine's admission order, one core per cell,
/// with spans around each call when `spans` is set and the counted
/// policies when `counted` is; checks every replayed makespan against the
/// engine's service time. Returns the replay's wall time.
double replay_jobs(const serve::ServeScenario& s, const Pmh& m,
                   const Mix& mix, const std::vector<serve::ServeCell>& cells,
                   bool counted, Spans* spans, Checks& checks) {
  const double start = now_s();
  const auto root = open_span(spans, "bench.replay");
  // Footprint-key namespaces numbered as the engine numbers them: tenants
  // and workloads by first appearance in the stream.
  std::map<std::string, std::size_t> tenant_ids, engine_widx;
  for (const serve::JobSpec& j : s.jobs) {
    tenant_ids.emplace(j.tenant, tenant_ids.size());
    engine_widx.emplace(j.workload.label(), engine_widx.size());
  }
  for (const exp::WorkloadSpec& w : s.mix)
    engine_widx.emplace(w.label(), engine_widx.size());
  for (const serve::ServeCell& c : cells) {
    std::unique_ptr<ndf::SimCore> core;
    bool same = true;
    for (const serve::JobRecord& r : c.jobs) {
      const std::string label = r.job.workload.label();
      const std::size_t w = mix.index.at(label);
      ndf::SchedOptions opts = base_options(s);
      opts.measure_misses = s.measure_misses;
      opts.keep_occupancy = s.measure_misses;
      opts.occ_task_base =
          std::int64_t(tenant_ids.at(r.job.tenant) * engine_widx.size() +
                       engine_widx.at(label))
          << 32;
      opts.seed = s.base_seed + r.job.index;
      const std::int64_t id = std::int64_t(r.job.index);
      const auto cell = open_span(spans, "sched.cell", id);
      const auto policy = ndf::make_scheduler(
          counted ? counted_name(c.policy) : c.policy, opts);
      {
        const auto span = open_span(spans, "sched.reset", id);
        if (core)
          core->reset(*mix.dags[w], m, opts);
        else
          core = std::make_unique<ndf::SimCore>(*mix.dags[w], m, opts);
      }
      const auto span = open_span(spans, "sched.run", id);
      same = same && core->run(*policy).makespan == r.service;
    }
    checks.expect(same, "replayed jobs reproduce the engine's service times (" +
                            c.policy + ")");
  }
  return now_s() - start;
}

void end_to_end(const RunConfig& cfg, const serve::ServeScenario& s,
                const Pmh& m, Report& report, Checks& checks) {
  // The first iteration warms up, is checked and gives the digest and the
  // peak memory; the ones after it are timed, between reference passes.
  const double start = now_s();
  const Mix warm_mix = build_mix(s, m, nullptr);
  const ServeRun warm = run_serve_sweep(s);
  const double rss = peak_rss_mb();
  const std::uint64_t digest = fnv1a(emit(s.name, warm.cells));
  check_cells(s, warm.cells, checks);
  checks.expect(offered_load(s, m, warm_mix) < 1.0,
                "the stream is offered below saturation");
  std::vector<double> items, setup, wall_items;
  HostSpeed host(1);
  while (int(items.size()) < kMinIterations ||
         now_s() - start < cfg.seconds) {
    const double t0 = now_s();
    const Mix mix = build_mix(s, m, nullptr);
    const double mix_s = now_s() - t0;
    const ServeRun r = run_serve_sweep(s);
    const double k = host.to_nominal();
    setup.push_back(mix_s * k);
    items.push_back(double(r.jobs) / (r.wall * k));
    wall_items.push_back(double(r.jobs) / r.wall);
    checks.expect(fnv1a(emit(s.name, r.cells)) == digest,
                  "serve output repeats at one seed");
  }
  print_digest(cfg, digest);
  print_samples("items_per_s", items);
  print_samples("wall items_per_s", wall_items);
  print_samples("reference pass s", host.passes());
  report.set("items_per_s", median(items));
  report.set("setup_s", median(setup));
  report.set("peak_rss_mb", rss);
}

void traced(const RunConfig& cfg, const serve::ServeScenario& s,
            const Pmh& m, Report& report, Checks& checks, Spans& spans) {
  counting_self_test(checks);
  const Mix mix = build_mix(s, m, &spans);
  double strands = 0.0, edges = 0.0, units = 0.0;
  for (std::size_t i = 0; i < mix.workloads.size(); ++i) {
    const exp::Workload& w = *mix.workloads[i];
    strands += double(w.tree().strand_count(w.tree().root()));
    edges += double(w.graph().num_edges());
    units += double(mix.dags[i]->num_units());
  }

  ServeRun plain;
  {
    const auto span = spans.open("serve.run");
    plain = run_serve_sweep(s);
  }
  const std::string plain_out = emit(s.name, plain.cells);
  check_cells(s, plain.cells, checks);
  print_digest(cfg, fnv1a(plain_out));

  // The engine with counted policies and a trace sink: its output must not
  // change. It gives the engine's policy counts.
  serve::ServeScenario counted = s;
  for (std::string& p : counted.policies) p = counted_name(p);
  CountingSink sink;
  counted.trace_sink = &sink;
  take_tallies();
  ServeRun counted_run = run_serve_sweep(counted);
  const PolicyTally engine_tally = total_tally(take_tallies());
  for (serve::ServeCell& c : counted_run.cells)
    c.policy = uncounted_name(c.policy);
  checks.expect(emit(s.name, counted_run.cells) == plain_out,
                "counted policies and the trace sink leave serve output "
                "unchanged");

  serve::ServeScenario off = s;
  off.measure_misses = false;
  const double occupancy = plain.wall - run_serve_sweep(off).wall;

  // Replays, as the sim workloads walk their grid: untraced; with spans
  // (every sched time below comes from it); untraced again; and with
  // counted policies, for the counts and pick/hook times only.
  const double before_s =
      replay_jobs(s, m, mix, plain.cells, false, nullptr, checks);
  const double traced_s =
      replay_jobs(s, m, mix, plain.cells, false, &spans, checks);
  const double untraced_s =
      (before_s +
       replay_jobs(s, m, mix, plain.cells, false, nullptr, checks)) /
      2.0;
  take_tallies();
  const double counted_s =
      replay_jobs(s, m, mix, plain.cells, true, nullptr, checks);
  const PolicyTally all = total_tally(take_tallies());
  std::fprintf(stderr, "counted replay: %.3f s, untraced replay: %.3f s\n",
               counted_s, untraced_s);
  checks.expect(all.picks == engine_tally.picks &&
                    all.unit_completions == engine_tally.unit_completions,
                "replayed jobs make the engine's policy calls");

  report.set("nd.elaborate_s", spans.total("nd.elaborate"));
  report.set("nd.strands", strands);
  report.set("nd.edges", edges);
  report.set("sched.condense_s", spans.total("sched.condense"));
  report.set("sched.units", units);
  set_core_metrics(report, spans, all);
  const std::vector<double> cells = spans.durations("sched.cell");
  std::map<std::string, double> by_policy;
  std::size_t k = 0;
  for (const serve::ServeCell& c : plain.cells)
    for (std::size_t j = 0; j < c.jobs.size(); ++j)
      by_policy[c.policy] += cells[k++];
  for (const auto& [p, t] : by_policy) report.set("sched." + p + ".cells_s", t);

  // Per-level Q*(σM_l) of each mix workload, for the sb jobs' Q_l ratio.
  std::vector<std::vector<double>> qstar;
  for (std::size_t i = 0; i < mix.dags.size(); ++i) {
    qstar.emplace_back();
    for (std::size_t l = 1; l <= mix.dags[i]->num_levels(); ++l)
      qstar.back().push_back(ndf::parallel_cache_complexity(
          mix.workloads[i]->tree(), mix.dags[i]->decomposition(l)));
  }
  double misses = 0.0;
  std::vector<double> q_ratio(2, 0.0);
  for (const serve::ServeCell& c : plain.cells) {
    for (double q : c.summary.measured_misses) misses += q;
    if (c.policy != "sb") continue;
    for (const serve::JobRecord& r : c.jobs) {
      const auto& q = qstar[mix.index.at(r.job.workload.label())];
      for (std::size_t l = 0;
           l < q_ratio.size() && l < q.size() && l < r.measured_misses.size();
           ++l)
        q_ratio[l] =
            std::max(q_ratio[l], r.measured_misses[l] / std::max(1.0, q[l]));
    }
  }
  report.set("pmh.occupancy_s", occupancy);
  report.set("pmh.measured_misses", misses);
  report.set("pmh.q_over_qstar_max.L1", q_ratio[0]);
  report.set("pmh.q_over_qstar_max.L2", q_ratio[1]);

  const double run_s = spans.total("serve.run");
  const double load = offered_load(s, m, mix);
  report.set("serve.run_s", run_s);
  report.set("serve.us_per_job", run_s / double(plain.jobs) * 1e6);
  report.set("serve.condensations", double(plain.condensations));
  report.set("serve.offered_load", load);
  report.set("serve.saturated", load >= 1.0 ? 1.0 : 0.0);
  report.set("obs.trace_overhead", traced_s / untraced_s - 1.0);
  report.set("obs.events", double(spans.size() + sink.events));
}

}  // namespace

void run_serve(const RunConfig& cfg, Report& report, Checks& checks,
               Spans& spans) {
  const serve::ServeScenario s = serve_stream_scenario(cfg.seed);
  const Pmh m = ndf::make_pmh(s.machines.front());
  if (cfg.trace)
    traced(cfg, s, m, report, checks, spans);
  else
    end_to_end(cfg, s, m, report, checks);
}

}  // namespace ndfbench
