#include "apps/stencil.hpp"

#include <algorithm>
#include <span>

#include "region/partition_ops.hpp"

namespace idxl::apps {

void stencil_body(TaskContext& ctx, const StencilArgs& args) {
  const int64_t r = args.radius;
  const std::size_t rs = static_cast<std::size_t>(r);
  auto in = ctx.region(0).accessor<double>(args.fin);
  auto out = ctx.region(1).accessor<double>(args.fout);
  ctx.region(1).domain().for_each_run([&](const Point& lo, int64_t n) {
    // Clip the run (cells (x, y0..y1)) to the interior: PRK skips the ring.
    const int64_t x = lo[0];
    if (x < r || x > args.nx - 1 - r) return;
    const int64_t y0 = std::max(lo[1], r);
    const int64_t y1 = std::min(lo[1] + n - 1, args.ny - 1 - r);
    if (y1 < y0) return;
    const int64_t m = y1 - y0 + 1;
    const std::span<double> o = out.write_run(Point::p2(x, y0), m);
    // row[j + r] is in(x, y0 + j); the run's y-neighbours lie within it.
    const std::span<const double> row = in.read_run(Point::p2(x, y0 - r), m + 2 * r);
    // k-major, so o[j] accumulates the same terms in the same order as the
    // reference's per-cell sum.
    for (int64_t k = 1; k <= r; ++k) {
      const double wp = stencil_weight(k, r), wm = stencil_weight(-k, r);
      const std::span<const double> east = in.read_run(Point::p2(x + k, y0), m);
      const std::span<const double> west = in.read_run(Point::p2(x - k, y0), m);
      const std::size_t up = rs + static_cast<std::size_t>(k);
      const std::size_t down = rs - static_cast<std::size_t>(k);
      for (std::size_t j = 0; j < o.size(); ++j) {
        double acc = o[j];
        acc += wp * east[j];
        acc += wm * west[j];
        acc += wp * row[j + up];
        acc += wm * row[j + down];
        o[j] = acc;
      }
    }
  });
}

void increment_body(TaskContext& ctx, FieldId fin) {
  auto in = ctx.region(0).accessor<double>(fin);
  ctx.region(0).domain().for_each_run([&](const Point& lo, int64_t n) {
    for (double& v : in.write_run(lo, n)) v += 1.0;
  });
}

StencilApp::StencilApp(RuntimeApi& rt, const StencilParams& params)
    : rt_(rt), params_(params) {
  IDXL_REQUIRE(params.nx / params.px > params.radius &&
                   params.ny / params.py > params.radius,
               "blocks must be larger than the stencil radius");
  auto& forest = rt_.forest();
  const IndexSpaceId grid_is =
      forest.create_index_space(Domain(Rect::box2(params.nx, params.ny)));
  const FieldSpaceId fs = forest.create_field_space();
  f_in_ = forest.allocate_field(fs, sizeof(double), "in");
  f_out_ = forest.allocate_field(fs, sizeof(double), "out");
  grid_ = forest.create_region(grid_is, fs);
  blocks_ = partition_equal(forest, grid_is, Rect::box2(params.px, params.py));
  halos_ = partition_halo(forest, grid_is, blocks_, params.radius);

  // PRK initial condition: in(x, y) = x + y, out = 0.
  {
    Accessor<double> in(forest, grid_, f_in_, Privilege::kWrite);
    Accessor<double> out(forest, grid_, f_out_, Privilege::kWrite);
    for (const Point& p : Rect::box2(params.nx, params.ny)) {
      in.write(p, static_cast<double>(p[0] + p[1]));
      out.write(p, 0.0);
    }
  }

  const StencilArgs args{f_in_, f_out_, params.radius, params.nx, params.ny};
  t_stencil_ = rt_.register_task(
      "stencil", [args](TaskContext& ctx) { stencil_body(ctx, args); });
  t_increment_ = rt_.register_task(
      "increment", [fin = f_in_](TaskContext& ctx) { increment_body(ctx, fin); });
}

bool StencilApp::run_iteration() {
  const Domain launch_domain = Domain(Rect::box2(params_.px, params_.py));
  const auto id = ProjectionFunctor::identity(2);
  bool all_index = true;

  all_index &= rt_.execute_index(IndexLauncher::over(launch_domain)
                                     .with_task(t_stencil_)
                                     .region(grid_, halos_, id, {f_in_}, Privilege::kRead)
                                     .region(grid_, blocks_, id, {f_out_},
                                             Privilege::kReadWrite))
                   .ran_as_index_launch;

  all_index &= rt_.execute_index(IndexLauncher::over(launch_domain)
                                     .with_task(t_increment_)
                                     .region(grid_, blocks_, id, {f_in_},
                                             Privilege::kReadWrite))
                   .ran_as_index_launch;
  return all_index;
}

void StencilApp::run(int iterations) {
  for (int i = 0; i < iterations; ++i) run_iteration();
  rt_.wait_all();
}

std::vector<double> StencilApp::output() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(grid_, f_out_);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(params_.nx * params_.ny));
  for (const Point& p : Rect::box2(params_.nx, params_.ny)) out.push_back(acc.read(p));
  return out;
}

std::vector<double> StencilApp::input() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(grid_, f_in_);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(params_.nx * params_.ny));
  for (const Point& p : Rect::box2(params_.nx, params_.ny)) out.push_back(acc.read(p));
  return out;
}

std::vector<double> StencilApp::reference_output(const StencilParams& params,
                                                 int iterations) {
  const int64_t nx = params.nx, ny = params.ny, radius = params.radius;
  std::vector<double> in(static_cast<std::size_t>(nx * ny));
  std::vector<double> out(static_cast<std::size_t>(nx * ny), 0.0);
  auto at = [ny](int64_t x, int64_t y) { return static_cast<std::size_t>(x * ny + y); };
  for (int64_t x = 0; x < nx; ++x)
    for (int64_t y = 0; y < ny; ++y) in[at(x, y)] = static_cast<double>(x + y);

  for (int it = 0; it < iterations; ++it) {
    for (int64_t x = radius; x < nx - radius; ++x)
      for (int64_t y = radius; y < ny - radius; ++y) {
        double acc = out[at(x, y)];
        for (int64_t k = 1; k <= radius; ++k) {
          acc += stencil_weight(k, radius) * in[at(x + k, y)];
          acc += stencil_weight(-k, radius) * in[at(x - k, y)];
          acc += stencil_weight(k, radius) * in[at(x, y + k)];
          acc += stencil_weight(-k, radius) * in[at(x, y - k)];
        }
        out[at(x, y)] = acc;
      }
    for (auto& v : in) v += 1.0;
  }
  return out;
}

}  // namespace idxl::apps
