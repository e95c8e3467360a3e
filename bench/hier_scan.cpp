// Hierarchical scan benchmark (DESIGN.md §16).
//
// Builds an array-heavy chip (a 12x12 AREF of a 2.4 um macro that
// itself nests a UNIT array), scans it flat-expanded and hierarchical
// with a shared CellScanCache at 1/2/8 shards, and reports windows/sec,
// cache hit rate and peak RSS per phase. The hierarchical phases run
// first so their VmHWM readings are not masked by the flat expansion
// (VmHWM is a process-wide high-water mark and only ever rises).
// Results go to stdout and BENCH_hier.json.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/timer.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scan_cache.hpp"
#include "hotspot/scanner.hpp"
#include "layout/gds_stream.hpp"
#include "layout/gdsii.hpp"
#include "layout/layout.hpp"
#include "layout/layout_source.hpp"

namespace {

using namespace hsdl;
using geom::Rect;

/// VmHWM (peak resident set) in kB from /proc/self/status; 0 when the
/// proc interface is unavailable.
long vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> value;
      return value;
    }
    status.ignore(256, '\n');
  }
  return 0;
}

/// MACRO: 2.4 x 2.4 um (2x2 scan windows), local wires plus a nested
/// 6x6 UNIT array — the repeated tile of the chip.
layout::GdsLibrary array_library() {
  layout::GdsLibrary lib;
  layout::GdsCell unit;
  unit.name = "UNIT";
  unit.boundaries.push_back(
      geom::Polygon::from_rect(Rect::from_xywh(0, 0, 180, 90)));
  unit.layers.push_back(1);

  layout::GdsCell macro;
  macro.name = "MACRO";
  const Rect local[] = {
      Rect::from_xywh(0, 0, 180, 90),
      Rect::from_xywh(2200, 2200, 200, 200),
      Rect::from_xywh(1300, 300, 400, 90),
      Rect::from_xywh(300, 1500, 90, 400),
      Rect::from_xywh(1500, 1700, 300, 90),
      Rect::from_xywh(700, 200, 90, 300),
      Rect::from_xywh(1900, 800, 90, 500),
      Rect::from_xywh(500, 2000, 500, 90),
  };
  for (const Rect& r : local) {
    macro.boundaries.push_back(geom::Polygon::from_rect(r));
    macro.layers.push_back(1);
  }
  macro.refs.push_back({"UNIT", {100, 700}, 6, 6, 300, 220});

  layout::GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"MACRO", {0, 0}, 12, 12, 2400, 2400});
  lib.cells = {unit, macro, top};
  return lib;
}

hotspot::CnnDetectorConfig scan_config() {
  hotspot::CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 8;
  config.feature.nm_per_px = 4.0;  // 1200 nm window -> 300 px raster
  config.cnn.stage1_maps = 4;
  config.cnn.stage2_maps = 4;
  config.cnn.fc_nodes = 8;
  return config;
}

struct PhaseResult {
  std::string name;
  std::size_t shards = 0;
  double seconds = 0.0;
  double windows_per_second = 0.0;
  std::size_t windows = 0;
  std::size_t from_cache = 0;
  double hit_rate = 0.0;
  long vm_hwm_after_kb = 0;
};

}  // namespace

int main() {
  bench::print_header(
      "hierarchical full-chip scan: flat expansion vs CellScanCache");

  const layout::HierLayout hier =
      layout::hier_from_library(array_library());
  const layout::HierSource source(hier, 1);
  const hotspot::CnnDetector detector(scan_config());
  const hotspot::ChipScanner scanner(hotspot::ScanConfig{1200, 1200});

  std::size_t hier_shapes = 0;
  for (const layout::HierCell& cell : hier.cells())
    hier_shapes += cell.shapes.size();
  std::printf("chip %.1f x %.1f um, %lld flat instances, "
              "%zu hierarchical shapes\n",
              hier.extent().width() / 1000.0,
              hier.extent().height() / 1000.0,
              static_cast<long long>(hier.flat_instance_count()),
              hier_shapes);

  std::vector<PhaseResult> phases;

  // Hierarchical scans first (see header comment on VmHWM ordering).
  for (const std::size_t shards : {1u, 2u, 8u}) {
    hotspot::CellScanCache cache;
    WallTimer timer;
    const hotspot::ScanReport report =
        scanner.scan_sharded(source, detector, shards, &cache);
    PhaseResult p;
    p.name = "hier_cached";
    p.shards = shards;
    p.seconds = timer.seconds();
    p.windows = report.windows_scanned;
    p.windows_per_second =
        static_cast<double>(report.windows_scanned) / p.seconds;
    p.from_cache = report.windows_from_cache;
    p.hit_rate = cache.stats().hit_rate();
    p.vm_hwm_after_kb = vm_hwm_kb();
    phases.push_back(p);
    std::printf("hier  %zu shard%s : %9.2f windows/s  (%zu/%zu reused, "
                "probe hit rate %.0f%%, peak RSS %ld kB)\n",
                shards, shards == 1 ? " " : "s", p.windows_per_second,
                p.from_cache, p.windows, 100.0 * p.hit_rate,
                p.vm_hwm_after_kb);
  }

  // Flat expansion last: materializes every instance in RAM.
  const std::vector<Rect> flat_rects = hier.flatten(1);
  const layout::Layout flat(hier.extent(), flat_rects);
  hotspot::InferenceEngine engine(detector);
  WallTimer timer;
  const hotspot::ScanReport flat_report =
      scanner.scan(layout::FlatSource(flat), engine);
  PhaseResult flat_phase;
  flat_phase.name = "flat";
  flat_phase.seconds = timer.seconds();
  flat_phase.windows = flat_report.windows_scanned;
  flat_phase.windows_per_second =
      static_cast<double>(flat_report.windows_scanned) / flat_phase.seconds;
  flat_phase.vm_hwm_after_kb = vm_hwm_kb();
  std::printf("flat  serial   : %7.2f windows/s  (%zu shapes expanded, "
              "peak RSS %ld kB)\n",
              flat_phase.windows_per_second, flat_rects.size(),
              flat_phase.vm_hwm_after_kb);

  const double speedup =
      phases[0].windows_per_second / flat_phase.windows_per_second;
  std::printf("\ncell cache speedup over flat scan (1 shard): %.1fx\n",
              speedup);

  std::ofstream os("BENCH_hier.json");
  os << "{\n"
     << "  \"windows\": " << flat_phase.windows << ",\n"
     << "  \"hier_shapes\": " << hier_shapes << ",\n"
     << "  \"flat_shapes\": " << flat_rects.size() << ",\n"
     << "  \"speedup_1shard\": " << speedup << ",\n"
     << "  \"flat\": {\"seconds\": " << flat_phase.seconds
     << ", \"windows_per_second\": " << flat_phase.windows_per_second
     << ", \"vm_hwm_after_kb\": " << flat_phase.vm_hwm_after_kb << "},\n"
     << "  \"hier_cached\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    os << "    {\"shards\": " << p.shards << ", \"seconds\": " << p.seconds
       << ", \"windows_per_second\": " << p.windows_per_second
       << ", \"windows_from_cache\": " << p.from_cache
       << ", \"cache_hit_rate\": " << p.hit_rate
       << ", \"vm_hwm_after_kb\": " << p.vm_hwm_after_kb << "}"
       << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::printf("wrote BENCH_hier.json\n");
  return 0;
}
