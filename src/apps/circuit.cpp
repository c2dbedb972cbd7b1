#include "apps/circuit.hpp"

#include "region/partition_ops.hpp"
#include "support/rng.hpp"

namespace idxl::apps {

namespace {

/// The generated unstructured graph, shared by the runtime app and the
/// serial reference so both simulate the identical circuit.
struct CircuitGraph {
  int64_t num_nodes = 0;
  int64_t num_wires = 0;
  std::vector<int64_t> wire_in, wire_out;
  std::vector<double> resistance;
  std::vector<double> capacitance;
  std::vector<double> init_voltage;
};

CircuitGraph generate_graph(const CircuitParams& p) {
  CircuitGraph g;
  g.num_nodes = p.pieces * p.nodes_per_piece;
  g.num_wires = p.pieces * p.wires_per_piece;
  g.wire_in.reserve(static_cast<std::size_t>(g.num_wires));
  g.wire_out.reserve(static_cast<std::size_t>(g.num_wires));
  g.resistance.reserve(static_cast<std::size_t>(g.num_wires));

  Rng rng(p.seed);
  for (int64_t piece = 0; piece < p.pieces; ++piece) {
    for (int64_t w = 0; w < p.wires_per_piece; ++w) {
      const int64_t in =
          piece * p.nodes_per_piece + static_cast<int64_t>(rng.next_below(
                                          static_cast<uint64_t>(p.nodes_per_piece)));
      int64_t out_piece = piece;
      if (p.pieces > 1 &&
          rng.next_below(100) < static_cast<uint64_t>(p.pct_external)) {
        // External wire: far end in a different piece.
        out_piece = static_cast<int64_t>(rng.next_below(
            static_cast<uint64_t>(p.pieces - 1)));
        if (out_piece >= piece) ++out_piece;
      }
      const int64_t out =
          out_piece * p.nodes_per_piece + static_cast<int64_t>(rng.next_below(
                                              static_cast<uint64_t>(p.nodes_per_piece)));
      g.wire_in.push_back(in);
      g.wire_out.push_back(out);
      g.resistance.push_back(1.0 + rng.next_double() * 9.0);
    }
  }
  g.capacitance.reserve(static_cast<std::size_t>(g.num_nodes));
  g.init_voltage.reserve(static_cast<std::size_t>(g.num_nodes));
  for (int64_t n = 0; n < g.num_nodes; ++n) {
    g.capacitance.push_back(1.0 + rng.next_double());
    g.init_voltage.push_back(rng.next_double() * 10.0 - 5.0);
  }
  return g;
}

}  // namespace

CircuitApp::CircuitApp(Runtime& rt, const CircuitParams& params)
    : rt_(rt), params_(params) {
  auto& forest = rt_.forest();
  const CircuitGraph graph = generate_graph(params);

  // --- regions ---
  const IndexSpaceId node_is = forest.create_index_space(Domain::line(graph.num_nodes));
  const IndexSpaceId wire_is = forest.create_index_space(Domain::line(graph.num_wires));
  const FieldSpaceId node_fs = forest.create_field_space();
  f_voltage_ = forest.allocate_field(node_fs, sizeof(double), "voltage");
  f_charge_ = forest.allocate_field(node_fs, sizeof(double), "charge");
  f_cap_ = forest.allocate_field(node_fs, sizeof(double), "capacitance");
  const FieldSpaceId wire_fs = forest.create_field_space();
  f_in_ = forest.allocate_field(wire_fs, sizeof(int64_t), "in_node");
  f_out_ = forest.allocate_field(wire_fs, sizeof(int64_t), "out_node");
  f_res_ = forest.allocate_field(wire_fs, sizeof(double), "resistance");
  f_cur_ = forest.allocate_field(wire_fs, sizeof(double), "current");
  node_region_ = forest.create_region(node_is, node_fs);
  wire_region_ = forest.create_region(wire_is, wire_fs);

  // --- partitions ---
  const Rect colors = Rect::line(params.pieces);
  const int64_t npp = params.nodes_per_piece;
  const int64_t wpp = params.wires_per_piece;
  piece_wires_ = partition_by_coloring(forest, wire_is, colors, [wpp](const Point& p) {
    return Point::p1(p[0] / wpp);
  });
  owned_nodes_ = partition_by_coloring(forest, node_is, colors, [npp](const Point& p) {
    return Point::p1(p[0] / npp);
  });
  // Neighborhood: every node a piece's wires touch (its accessed set,
  // owned + ghosts). Derived with dependent partitioning — the image of
  // each wire piece under the endpoint maps — exactly how the Legion
  // circuit derives its shared/ghost node regions. Aliased, since external
  // wires share far-end nodes between pieces.
  neighborhoods_ = partition_image_multi(
      forest, node_is, piece_wires_, [&graph](const Point& w, std::vector<Point>& out) {
        out.push_back(Point::p1(graph.wire_in[static_cast<std::size_t>(w[0])]));
        out.push_back(Point::p1(graph.wire_out[static_cast<std::size_t>(w[0])]));
      });

  // --- initial data (top-level, before any launch) ---
  {
    Accessor<double> v(forest, node_region_, f_voltage_, Privilege::kWrite);
    Accessor<double> q(forest, node_region_, f_charge_, Privilege::kWrite);
    Accessor<double> c(forest, node_region_, f_cap_, Privilege::kWrite);
    for (int64_t n = 0; n < graph.num_nodes; ++n) {
      v.write(Point::p1(n), graph.init_voltage[static_cast<std::size_t>(n)]);
      q.write(Point::p1(n), 0.0);
      c.write(Point::p1(n), graph.capacitance[static_cast<std::size_t>(n)]);
    }
    Accessor<int64_t> wi(forest, wire_region_, f_in_, Privilege::kWrite);
    Accessor<int64_t> wo(forest, wire_region_, f_out_, Privilege::kWrite);
    Accessor<double> wr(forest, wire_region_, f_res_, Privilege::kWrite);
    Accessor<double> wc(forest, wire_region_, f_cur_, Privilege::kWrite);
    for (int64_t w = 0; w < graph.num_wires; ++w) {
      wi.write(Point::p1(w), graph.wire_in[static_cast<std::size_t>(w)]);
      wo.write(Point::p1(w), graph.wire_out[static_cast<std::size_t>(w)]);
      wr.write(Point::p1(w), graph.resistance[static_cast<std::size_t>(w)]);
      wc.write(Point::p1(w), 0.0);
    }
  }

  // --- task bodies ---
  const FieldId fv = f_voltage_, fq = f_charge_, fc = f_cap_;
  const FieldId fi = f_in_, fo = f_out_, fr = f_res_, fcur = f_cur_;
  const double dt = params.dt;

  // Wire fields and owned nodes are dense blocks, read and written a run at
  // a time; the node a wire names is checked per element against the
  // (sparse) neighbourhood subregion.
  t_cnc_ = rt_.register_task("calc_new_currents", [fv, fi, fo, fr, fcur](TaskContext& ctx) {
    auto volt = ctx.region(0).accessor<double>(fv);
    auto in = ctx.region(1).accessor<int64_t>(fi);
    auto out = ctx.region(1).accessor<int64_t>(fo);
    auto res = ctx.region(1).accessor<double>(fr);
    auto cur = ctx.region(2).accessor<double>(fcur);
    ctx.region(1).domain().for_each_run([&](const Point& lo, int64_t n) {
      const auto wi = in.read_run(lo, n);
      const auto wo = out.read_run(lo, n);
      const auto wr = res.read_run(lo, n);
      const auto wc = cur.write_run(lo, n);
      for (std::size_t k = 0; k < wc.size(); ++k) {
        const double v_in = volt.read(Point::p1(wi[k]));
        const double v_out = volt.read(Point::p1(wo[k]));
        wc[k] = (v_in - v_out) / wr[k];
      }
    });
  });

  t_dc_ = rt_.register_task("distribute_charge", [fq, fi, fo, fcur, dt](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<int64_t>(fi);
    auto out = ctx.region(0).accessor<int64_t>(fo);
    auto cur = ctx.region(0).accessor<double>(fcur);
    auto charge = ctx.region(1).accessor<double>(fq);
    ctx.region(0).domain().for_each_run([&](const Point& lo, int64_t n) {
      const auto wi = in.read_run(lo, n);
      const auto wo = out.read_run(lo, n);
      const auto wc = cur.read_run(lo, n);
      for (std::size_t k = 0; k < wc.size(); ++k) {
        charge.reduce(Point::p1(wi[k]), -dt * wc[k]);
        charge.reduce(Point::p1(wo[k]), dt * wc[k]);
      }
    });
  });

  t_uv_ = rt_.register_task("update_voltages", [fv, fq, fc](TaskContext& ctx) {
    auto volt = ctx.region(0).accessor<double>(fv);
    auto charge = ctx.region(0).accessor<double>(fq);
    auto cap = ctx.region(1).accessor<double>(fc);
    ctx.region(0).domain().for_each_run([&](const Point& lo, int64_t n) {
      const auto v = volt.write_run(lo, n);
      const auto q = charge.write_run(lo, n);
      const auto c = cap.read_run(lo, n);
      for (std::size_t k = 0; k < v.size(); ++k) {
        v[k] += q[k] / c[k];
        q[k] = 0.0;
      }
    });
  });
}

bool CircuitApp::run_iteration() {
  const Domain launch_domain = Domain::line(params_.pieces);
  const auto id = ProjectionFunctor::identity(1);
  bool all_index = true;

  all_index &=
      rt_.execute_index(
             IndexLauncher::over(launch_domain)
                 .with_task(t_cnc_)
                 .region(node_region_, neighborhoods_, id, {f_voltage_},
                         Privilege::kRead)
                 .region(wire_region_, piece_wires_, id, {f_in_, f_out_, f_res_},
                         Privilege::kRead)
                 .region(wire_region_, piece_wires_, id, {f_cur_},
                         Privilege::kWrite))
          .ran_as_index_launch;

  all_index &=
      rt_.execute_index(
             IndexLauncher::over(launch_domain)
                 .with_task(t_dc_)
                 .region(wire_region_, piece_wires_, id, {f_in_, f_out_, f_cur_},
                         Privilege::kRead)
                 .region(node_region_, neighborhoods_, id, {f_charge_},
                         Privilege::kReduce, ReductionOp::kSum))
          .ran_as_index_launch;

  all_index &=
      rt_.execute_index(
             IndexLauncher::over(launch_domain)
                 .with_task(t_uv_)
                 .region(node_region_, owned_nodes_, id, {f_voltage_, f_charge_},
                         Privilege::kReadWrite)
                 .region(node_region_, owned_nodes_, id, {f_cap_},
                         Privilege::kRead))
          .ran_as_index_launch;
  return all_index;
}

void CircuitApp::run(int iterations) {
  for (int i = 0; i < iterations; ++i) run_iteration();
  rt_.wait_all();
}

std::vector<double> CircuitApp::voltages() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(node_region_, f_voltage_);
  std::vector<double> out;
  const int64_t n = params_.pieces * params_.nodes_per_piece;
  out.reserve(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

std::vector<double> CircuitApp::currents() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(wire_region_, f_cur_);
  std::vector<double> out;
  const int64_t w = params_.pieces * params_.wires_per_piece;
  out.reserve(static_cast<std::size_t>(w));
  for (int64_t i = 0; i < w; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

std::vector<double> CircuitApp::reference_voltages(const CircuitParams& params,
                                                   int iterations) {
  const CircuitGraph g = generate_graph(params);
  std::vector<double> voltage = g.init_voltage;
  std::vector<double> charge(static_cast<std::size_t>(g.num_nodes), 0.0);
  std::vector<double> current(static_cast<std::size_t>(g.num_wires), 0.0);

  for (int it = 0; it < iterations; ++it) {
    for (int64_t w = 0; w < g.num_wires; ++w) {
      const auto wi = static_cast<std::size_t>(w);
      current[wi] = (voltage[static_cast<std::size_t>(g.wire_in[wi])] -
                     voltage[static_cast<std::size_t>(g.wire_out[wi])]) /
                    g.resistance[wi];
    }
    for (int64_t w = 0; w < g.num_wires; ++w) {
      const auto wi = static_cast<std::size_t>(w);
      charge[static_cast<std::size_t>(g.wire_in[wi])] -= params.dt * current[wi];
      charge[static_cast<std::size_t>(g.wire_out[wi])] += params.dt * current[wi];
    }
    for (int64_t n = 0; n < g.num_nodes; ++n) {
      const auto ni = static_cast<std::size_t>(n);
      voltage[ni] += charge[ni] / g.capacitance[ni];
      charge[ni] = 0.0;
    }
  }
  return voltage;
}

}  // namespace idxl::apps
