#include "apps/soleil.hpp"

#include "region/partition_ops.hpp"

namespace idxl::apps {

std::array<int, 3> sweep_signs(int direction) {
  IDXL_ASSERT(direction >= 0 && direction < 8);
  return {direction & 1 ? -1 : 1, direction & 2 ? -1 : 1, direction & 4 ? -1 : 1};
}

namespace {

/// Sweep depth of block coordinate `c` along an axis of `extent` blocks.
int64_t sweep_depth(int64_t c, int64_t extent, int sign) {
  return sign > 0 ? c : extent - 1 - c;
}

/// Deterministic, FP-exact initial temperature.
double initial_temperature(int64_t gx, int64_t gy, int64_t gz) {
  return 1.0 + 0.1 * static_cast<double>((gx * 7 + gy * 3 + gz) % 13);
}

struct SweepArgs {
  int direction;
};

}  // namespace

SoleilApp::SoleilApp(Runtime& rt, const SoleilParams& p) : rt_(rt), params_(p) {
  auto& forest = rt_.forest();
  const int64_t nx = p.bx * p.cx, ny = p.by * p.cy, nz = p.bz * p.cz;
  const Rect block_rect = Rect::box3(p.bx, p.by, p.bz);

  // --- fluid grid ---
  const IndexSpaceId fluid_is = forest.create_index_space(Domain(Rect::box3(nx, ny, nz)));
  const FieldSpaceId fluid_fs = forest.create_field_space();
  f_temp_ = forest.allocate_field(fluid_fs, sizeof(double), "T");
  f_temp_new_ = forest.allocate_field(fluid_fs, sizeof(double), "T_new");
  fluid_ = forest.create_region(fluid_is, fluid_fs);
  fluid_blocks_ = partition_equal(forest, fluid_is, block_rect);
  fluid_halos_ = partition_halo(forest, fluid_is, fluid_blocks_, 1);

  // --- block-granularity quantities ---
  const IndexSpaceId block_is = forest.create_index_space(Domain(block_rect));
  const FieldSpaceId block_fs = forest.create_field_space();
  f_source_ = forest.allocate_field(block_fs, sizeof(double), "source");
  for (int d = 0; d < 8; ++d)
    f_intensity_[static_cast<std::size_t>(d)] =
        forest.allocate_field(block_fs, sizeof(double), std::string("I") + std::to_string(d));
  blockq_ = forest.create_region(block_is, block_fs);
  block_cells_ = partition_equal(forest, block_is, block_rect);  // one block per color

  // --- exchange planes ---
  auto make_plane = [&](int64_t a, int64_t b, std::array<FieldId, 8>& fields,
                        RegionId& region, PartitionId& part, const char* tag) {
    const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(a, b)));
    const FieldSpaceId fs = forest.create_field_space();
    for (int d = 0; d < 8; ++d)
      fields[static_cast<std::size_t>(d)] = forest.allocate_field(
          fs, sizeof(double), std::string(tag) + std::to_string(d));
    region = forest.create_region(is, fs);
    part = partition_equal(forest, is, Rect::box2(a, b));  // one cell per color
  };
  make_plane(p.bx, p.by, f_plane_xy_, plane_xy_, part_xy_, "Pxy");
  make_plane(p.by, p.bz, f_plane_yz_, plane_yz_, part_yz_, "Pyz");
  make_plane(p.bx, p.bz, f_plane_xz_, plane_xz_, part_xz_, "Pxz");

  // --- particles ---
  const int64_t nblocks = p.bx * p.by * p.bz;
  const int64_t nparticles = nblocks * p.particles_per_block;
  const IndexSpaceId part_is = forest.create_index_space(Domain::line(nparticles));
  const FieldSpaceId part_fs = forest.create_field_space();
  f_ppos_ = forest.allocate_field(part_fs, sizeof(int64_t), "pos");
  f_ptemp_ = forest.allocate_field(part_fs, sizeof(double), "ptemp");
  particles_ = forest.create_region(part_is, part_fs);
  const int64_t ppb = p.particles_per_block;
  const int64_t by_ = p.by, bz_ = p.bz;
  particle_blocks_ = partition_by_coloring(
      forest, part_is, block_rect, [ppb, by_, bz_](const Point& pt) {
        const int64_t b = pt[0] / ppb;
        return Point::p3(b / (by_ * bz_), (b / bz_) % by_, b % bz_);
      });

  // --- initial data ---
  {
    Accessor<double> t(forest, fluid_, f_temp_, Privilege::kWrite);
    Accessor<double> tn(forest, fluid_, f_temp_new_, Privilege::kWrite);
    for (const Point& c : Rect::box3(nx, ny, nz)) {
      t.write(c, initial_temperature(c[0], c[1], c[2]));
      tn.write(c, 0.0);
    }
    Accessor<double> src(forest, blockq_, f_source_, Privilege::kWrite);
    for (const Point& b : block_rect) src.write(b, 0.0);
    for (int d = 0; d < 8; ++d) {
      Accessor<double> i(forest, blockq_, f_intensity_[static_cast<std::size_t>(d)],
                         Privilege::kWrite);
      for (const Point& b : block_rect) i.write(b, 0.0);
    }
    Accessor<int64_t> pos(forest, particles_, f_ppos_, Privilege::kWrite);
    Accessor<double> ptemp(forest, particles_, f_ptemp_, Privilege::kWrite);
    const int64_t cells_per_block = p.cx * p.cy * p.cz;
    for (int64_t i = 0; i < nparticles; ++i) {
      pos.write(Point::p1(i), (i * 7 + 3) % cells_per_block);
      ptemp.write(Point::p1(i), 0.0);
    }
  }

  // --- task bodies ---
  const auto pp = params_;  // captured by value in the lambdas below
  const FieldId ft = f_temp_, ftn = f_temp_new_, fsrc = f_source_;
  const auto fint = f_intensity_;
  const auto fxy = f_plane_xy_, fyz = f_plane_yz_, fxz = f_plane_xz_;
  const FieldId fpos = f_ppos_, fptemp = f_ptemp_;

  t_diffuse_ = rt_.register_task("fluid_diffuse", [ft, ftn, pp](TaskContext& ctx) {
    auto t = ctx.region(0).accessor<double>(ft);
    auto tn = ctx.region(1).accessor<double>(ftn);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& c) {
      const double center = t.read(c);
      double lap = 0.0;
      for (int axis = 0; axis < 3; ++axis) {
        for (int s = -1; s <= 1; s += 2) {
          Point nb = c;
          nb[axis] += s;
          if (halo.contains(nb)) lap += t.read(nb) - center;
        }
      }
      tn.write(c, center + pp.alpha * lap);
    });
  });

  t_copy_ = rt_.register_task("fluid_copy", [ft, ftn](TaskContext& ctx) {
    auto tn = ctx.region(0).accessor<double>(ftn);
    auto t = ctx.region(1).accessor<double>(ft);
    ctx.region(1).domain().for_each([&](const Point& c) { t.write(c, tn.read(c)); });
  });

  t_collect_ = rt_.register_task("collect_source", [ft, fsrc](TaskContext& ctx) {
    auto t = ctx.region(0).accessor<double>(ft);
    auto src = ctx.region(1).accessor<double>(fsrc);
    double sum = 0.0;
    int64_t count = 0;
    ctx.region(0).domain().for_each([&](const Point& c) {
      sum += t.read(c);
      ++count;
    });
    src.write(ctx.point, sum / static_cast<double>(count));
  });

  t_plane_init_ = rt_.register_task("plane_init", [pp](TaskContext& ctx) {
    const FieldId field = ctx.arg<FieldId>();
    auto plane = ctx.region(0).accessor<double>(field);
    ctx.region(0).domain().for_each(
        [&](const Point& c) { plane.write(c, pp.boundary_intensity); });
  });

  t_sweep_ = rt_.register_task("dom_sweep", [pp, fxy, fyz, fxz, fint, fsrc](TaskContext& ctx) {
    const int d = ctx.arg<SweepArgs>().direction;
    const auto dd = static_cast<std::size_t>(d);
    auto pxy = ctx.region(0).accessor<double>(fxy[dd]);
    auto pyz = ctx.region(1).accessor<double>(fyz[dd]);
    auto pxz = ctx.region(2).accessor<double>(fxz[dd]);
    auto intensity = ctx.region(3).accessor<double>(fint[dd]);
    auto src = ctx.region(4).accessor<double>(fsrc);

    const Point b = ctx.point;  // block coordinates (X, Y, Z)
    const Point cxy = Point::p2(b[0], b[1]);
    const Point cyz = Point::p2(b[1], b[2]);
    const Point cxz = Point::p2(b[0], b[2]);
    const double in_x = pyz.read(cyz);  // incoming along x: plane ⟂ x
    const double in_y = pxz.read(cxz);
    const double in_z = pxy.read(cxy);
    const double value =
        (src.read(b) + (in_x + in_y + in_z) / 3.0) / (1.0 + pp.sigma);
    intensity.write(b, value);
    pyz.write(cyz, value);
    pxz.write(cxz, value);
    pxy.write(cxy, value);
  });

  t_feedback_ = rt_.register_task("radiation_feedback", [ft, fint, pp](TaskContext& ctx) {
    auto t = ctx.region(0).accessor<double>(ft);
    std::array<Accessor<double>, 8> intensities = {
        ctx.region(1).accessor<double>(fint[0]), ctx.region(1).accessor<double>(fint[1]),
        ctx.region(1).accessor<double>(fint[2]), ctx.region(1).accessor<double>(fint[3]),
        ctx.region(1).accessor<double>(fint[4]), ctx.region(1).accessor<double>(fint[5]),
        ctx.region(1).accessor<double>(fint[6]), ctx.region(1).accessor<double>(fint[7])};
    double total = 0.0;
    for (const auto& acc : intensities) total += acc.read(ctx.point);
    ctx.region(0).domain().for_each(
        [&](const Point& c) { t.write(c, t.read(c) + pp.feedback * total); });
  });

  t_particles_ = rt_.register_task("particle_advance", [ft, fpos, fptemp, pp](TaskContext& ctx) {
    auto pos = ctx.region(0).accessor<int64_t>(fpos);
    auto ptemp = ctx.region(0).accessor<double>(fptemp);
    auto t = ctx.region(1).accessor<double>(ft);
    const Point b = ctx.point;
    const int64_t cells = pp.cx * pp.cy * pp.cz;
    ctx.region(0).domain().for_each([&](const Point& i) {
      const int64_t local = pos.read(i);
      const Point cell = Point::p3(b[0] * pp.cx + local / (pp.cy * pp.cz),
                                   b[1] * pp.cy + (local / pp.cz) % pp.cy,
                                   b[2] * pp.cz + local % pp.cz);
      ptemp.write(i, ptemp.read(i) + pp.relax * (t.read(cell) - ptemp.read(i)));
      pos.write(i, (local + 1) % cells);
    });
  });
}

void SoleilApp::issue_sweep(int direction, IterationStats& stats) {
  const auto d = static_cast<std::size_t>(direction);
  const auto [sx, sy, sz] = sweep_signs(direction);
  const auto id2 = ProjectionFunctor::identity(2);

  // Reset the three exchange planes to the inflow boundary value.
  struct PlaneTarget {
    RegionId region;
    PartitionId part;
    FieldId field;
    Rect rect;
  };
  const PlaneTarget planes[3] = {
      {plane_xy_, part_xy_, f_plane_xy_[d], Rect::box2(params_.bx, params_.by)},
      {plane_yz_, part_yz_, f_plane_yz_[d], Rect::box2(params_.by, params_.bz)},
      {plane_xz_, part_xz_, f_plane_xz_[d], Rect::box2(params_.bx, params_.bz)}};
  for (const PlaneTarget& pt : planes) {
    const auto r = rt_.execute_index(
        IndexLauncher::over(Domain(pt.rect))
            .with_task(t_plane_init_)
            .region(pt.region, pt.part, id2, {pt.field}, Privilege::kWrite)
            .scalars(pt.field));
    ++stats.launches;
    stats.index_launches += r.ran_as_index_launch ? 1 : 0;
    stats.dynamic_checked += r.safety.used_dynamic() ? 1 : 0;
  }

  // The paper's non-trivial projection functors: 3-D wavefront -> 2-D
  // exchange planes.
  const auto fx_xy = ProjectionFunctor::symbolic({make_coord(0), make_coord(1)}, "xy");
  const auto fx_yz = ProjectionFunctor::symbolic({make_coord(1), make_coord(2)}, "yz");
  const auto fx_xz = ProjectionFunctor::symbolic({make_coord(0), make_coord(2)}, "xz");
  const auto id3 = ProjectionFunctor::identity(3);

  const int64_t max_depth = params_.bx + params_.by + params_.bz - 2;
  for (int64_t w = 0; w < max_depth; ++w) {
    std::vector<Point> wave;
    for (int64_t x = 0; x < params_.bx; ++x)
      for (int64_t y = 0; y < params_.by; ++y)
        for (int64_t z = 0; z < params_.bz; ++z)
          if (sweep_depth(x, params_.bx, sx) + sweep_depth(y, params_.by, sy) +
                  sweep_depth(z, params_.bz, sz) ==
              w)
            wave.push_back(Point::p3(x, y, z));
    IDXL_ASSERT(!wave.empty());

    const auto r = rt_.execute_index(
        IndexLauncher::over(Domain::from_points(std::move(wave)))
            .with_task(t_sweep_)
            .region(plane_xy_, part_xy_, fx_xy, {f_plane_xy_[d]},
                    Privilege::kReadWrite)
            .region(plane_yz_, part_yz_, fx_yz, {f_plane_yz_[d]},
                    Privilege::kReadWrite)
            .region(plane_xz_, part_xz_, fx_xz, {f_plane_xz_[d]},
                    Privilege::kReadWrite)
            .region(blockq_, block_cells_, id3, {f_intensity_[d]},
                    Privilege::kWrite)
            .region(blockq_, block_cells_, id3, {f_source_}, Privilege::kRead)
            .scalars(SweepArgs{direction}));
    ++stats.launches;
    stats.index_launches += r.ran_as_index_launch ? 1 : 0;
    stats.dynamic_checked += r.safety.used_dynamic() ? 1 : 0;
  }
}

SoleilApp::IterationStats SoleilApp::run_iteration() {
  IterationStats stats;
  const Rect block_rect = Rect::box3(params_.bx, params_.by, params_.bz);
  const Domain block_domain{block_rect};
  const auto id3 = ProjectionFunctor::identity(3);
  auto issue = [&](const IndexLauncher& l) {
    const auto r = rt_.execute_index(l);
    ++stats.launches;
    stats.index_launches += r.ran_as_index_launch ? 1 : 0;
    stats.dynamic_checked += r.safety.used_dynamic() ? 1 : 0;
  };

  // Fluid: diffuse into T_new, copy back.
  issue(IndexLauncher::over(block_domain)
            .with_task(t_diffuse_)
            .region(fluid_, fluid_halos_, id3, {f_temp_}, Privilege::kRead)
            .region(fluid_, fluid_blocks_, id3, {f_temp_new_},
                    Privilege::kWrite));

  issue(IndexLauncher::over(block_domain)
            .with_task(t_copy_)
            .region(fluid_, fluid_blocks_, id3, {f_temp_new_}, Privilege::kRead)
            .region(fluid_, fluid_blocks_, id3, {f_temp_}, Privilege::kWrite));

  if (params_.enable_dom) {
    // Radiation source from the fluid.
    issue(IndexLauncher::over(block_domain)
              .with_task(t_collect_)
              .region(fluid_, fluid_blocks_, id3, {f_temp_}, Privilege::kRead)
              .region(blockq_, block_cells_, id3, {f_source_},
                      Privilege::kWrite));

    // DOM: 8 corner sweeps.
    for (int dir = 0; dir < 8; ++dir) issue_sweep(dir, stats);

    // Radiation feedback into the fluid.
    std::vector<FieldId> all_intensity(f_intensity_.begin(), f_intensity_.end());
    issue(IndexLauncher::over(block_domain)
              .with_task(t_feedback_)
              .region(fluid_, fluid_blocks_, id3, {f_temp_},
                      Privilege::kReadWrite)
              .region(blockq_, block_cells_, id3, std::move(all_intensity),
                      Privilege::kRead));
  }

  if (params_.enable_particles) {
    issue(IndexLauncher::over(block_domain)
              .with_task(t_particles_)
              .region(particles_, particle_blocks_, id3, {f_ppos_, f_ptemp_},
                      Privilege::kReadWrite)
              .region(fluid_, fluid_blocks_, id3, {f_temp_}, Privilege::kRead));
  }

  return stats;
}

void SoleilApp::run(int iterations) {
  for (int i = 0; i < iterations; ++i) run_iteration();
  rt_.wait_all();
}

std::vector<double> SoleilApp::temperatures() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(fluid_, f_temp_);
  std::vector<double> out;
  const Rect r = Rect::box3(params_.bx * params_.cx, params_.by * params_.cy,
                            params_.bz * params_.cz);
  out.reserve(static_cast<std::size_t>(r.volume()));
  for (const Point& c : r) out.push_back(acc.read(c));
  return out;
}

std::vector<double> SoleilApp::intensity(int direction) {
  rt_.wait_all();
  auto acc =
      rt_.read_region<double>(blockq_, f_intensity_[static_cast<std::size_t>(direction)]);
  std::vector<double> out;
  for (const Point& b : Rect::box3(params_.bx, params_.by, params_.bz))
    out.push_back(acc.read(b));
  return out;
}

std::vector<double> SoleilApp::particle_temps() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(particles_, f_ptemp_);
  std::vector<double> out;
  const int64_t n = params_.bx * params_.by * params_.bz * params_.particles_per_block;
  for (int64_t i = 0; i < n; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

SoleilApp::Reference SoleilApp::reference(const SoleilParams& p, int iterations) {
  const int64_t nx = p.bx * p.cx, ny = p.by * p.cy, nz = p.bz * p.cz;
  const int64_t nblocks = p.bx * p.by * p.bz;
  auto cell_at = [ny, nz](int64_t x, int64_t y, int64_t z) {
    return static_cast<std::size_t>((x * ny + y) * nz + z);
  };
  auto block_at = [&p](int64_t X, int64_t Y, int64_t Z) {
    return static_cast<std::size_t>((X * p.by + Y) * p.bz + Z);
  };

  Reference ref;
  ref.temperature.resize(static_cast<std::size_t>(nx * ny * nz));
  for (int64_t x = 0; x < nx; ++x)
    for (int64_t y = 0; y < ny; ++y)
      for (int64_t z = 0; z < nz; ++z)
        ref.temperature[cell_at(x, y, z)] = initial_temperature(x, y, z);
  for (auto& i : ref.intensity) i.assign(static_cast<std::size_t>(nblocks), 0.0);
  const int64_t nparticles = nblocks * p.particles_per_block;
  ref.particle_temp.assign(static_cast<std::size_t>(nparticles), 0.0);
  std::vector<int64_t> ppos(static_cast<std::size_t>(nparticles));
  const int64_t cells_per_block = p.cx * p.cy * p.cz;
  for (int64_t i = 0; i < nparticles; ++i)
    ppos[static_cast<std::size_t>(i)] = (i * 7 + 3) % cells_per_block;

  std::vector<double> source(static_cast<std::size_t>(nblocks), 0.0);

  for (int it = 0; it < iterations; ++it) {
    // Fluid diffusion.
    std::vector<double> t_new(ref.temperature.size());
    for (int64_t x = 0; x < nx; ++x)
      for (int64_t y = 0; y < ny; ++y)
        for (int64_t z = 0; z < nz; ++z) {
          const double center = ref.temperature[cell_at(x, y, z)];
          double lap = 0.0;
          if (x > 0) lap += ref.temperature[cell_at(x - 1, y, z)] - center;
          if (x < nx - 1) lap += ref.temperature[cell_at(x + 1, y, z)] - center;
          if (y > 0) lap += ref.temperature[cell_at(x, y - 1, z)] - center;
          if (y < ny - 1) lap += ref.temperature[cell_at(x, y + 1, z)] - center;
          if (z > 0) lap += ref.temperature[cell_at(x, y, z - 1)] - center;
          if (z < nz - 1) lap += ref.temperature[cell_at(x, y, z + 1)] - center;
          t_new[cell_at(x, y, z)] = center + p.alpha * lap;
        }
    ref.temperature = t_new;

    // Source collection. The parallel task iterates its block's cells in
    // row-major order of the *global* domain restricted to the block,
    // which matches this loop order.
    if (p.enable_dom)
    for (int64_t X = 0; X < p.bx; ++X)
      for (int64_t Y = 0; Y < p.by; ++Y)
        for (int64_t Z = 0; Z < p.bz; ++Z) {
          double sum = 0.0;
          for (int64_t x = X * p.cx; x < (X + 1) * p.cx; ++x)
            for (int64_t y = Y * p.cy; y < (Y + 1) * p.cy; ++y)
              for (int64_t z = Z * p.cz; z < (Z + 1) * p.cz; ++z)
                sum += ref.temperature[cell_at(x, y, z)];
          source[block_at(X, Y, Z)] =
              sum / static_cast<double>(p.cx * p.cy * p.cz);
        }

    // DOM sweeps.
    if (p.enable_dom)
    for (int dir = 0; dir < 8; ++dir) {
      const auto [sx, sy, sz] = sweep_signs(dir);
      std::vector<double> pxy(static_cast<std::size_t>(p.bx * p.by),
                              p.boundary_intensity);
      std::vector<double> pyz(static_cast<std::size_t>(p.by * p.bz),
                              p.boundary_intensity);
      std::vector<double> pxz(static_cast<std::size_t>(p.bx * p.bz),
                              p.boundary_intensity);
      const int64_t max_depth = p.bx + p.by + p.bz - 2;
      for (int64_t w = 0; w < max_depth; ++w)
        for (int64_t X = 0; X < p.bx; ++X)
          for (int64_t Y = 0; Y < p.by; ++Y)
            for (int64_t Z = 0; Z < p.bz; ++Z) {
              if (sweep_depth(X, p.bx, sx) + sweep_depth(Y, p.by, sy) +
                      sweep_depth(Z, p.bz, sz) !=
                  w)
                continue;
              const auto ixy = static_cast<std::size_t>(X * p.by + Y);
              const auto iyz = static_cast<std::size_t>(Y * p.bz + Z);
              const auto ixz = static_cast<std::size_t>(X * p.bz + Z);
              const double value =
                  (source[block_at(X, Y, Z)] + (pyz[iyz] + pxz[ixz] + pxy[ixy]) / 3.0) /
                  (1.0 + p.sigma);
              ref.intensity[static_cast<std::size_t>(dir)][block_at(X, Y, Z)] = value;
              pyz[iyz] = value;
              pxz[ixz] = value;
              pxy[ixy] = value;
            }
    }

    // Radiation feedback.
    if (p.enable_dom)
    for (int64_t X = 0; X < p.bx; ++X)
      for (int64_t Y = 0; Y < p.by; ++Y)
        for (int64_t Z = 0; Z < p.bz; ++Z) {
          double total = 0.0;
          for (int dir = 0; dir < 8; ++dir)
            total += ref.intensity[static_cast<std::size_t>(dir)][block_at(X, Y, Z)];
          for (int64_t x = X * p.cx; x < (X + 1) * p.cx; ++x)
            for (int64_t y = Y * p.cy; y < (Y + 1) * p.cy; ++y)
              for (int64_t z = Z * p.cz; z < (Z + 1) * p.cz; ++z)
                ref.temperature[cell_at(x, y, z)] += p.feedback * total;
        }

    // Particles.
    if (p.enable_particles)
    for (int64_t i = 0; i < nparticles; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const int64_t b = i / p.particles_per_block;
      const int64_t X = b / (p.by * p.bz), Y = (b / p.bz) % p.by, Z = b % p.bz;
      const int64_t local = ppos[ii];
      const int64_t x = X * p.cx + local / (p.cy * p.cz);
      const int64_t y = Y * p.cy + (local / p.cz) % p.cy;
      const int64_t z = Z * p.cz + local % p.cz;
      ref.particle_temp[ii] +=
          p.relax * (ref.temperature[cell_at(x, y, z)] - ref.particle_temp[ii]);
      ppos[ii] = (local + 1) % cells_per_block;
    }
  }
  return ref;
}

}  // namespace idxl::apps
