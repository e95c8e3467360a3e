// Full-chip hotspot scan: the production flow the paper motivates.
//
// Generates a small chip, trains the CNN detector on independently
// generated clips, scans every window position, and compares the
// screening flow's ODST against brute-force lithography simulation of
// every window. Scanner hits are cross-checked against the litho labeler.
//
// Set HSDL_RUN_REPORT=<path> to capture the run as a JSON RunReport
// (metrics snapshot + scan summary) with a Chrome trace of the whole
// flow next to it at <path>.trace.json — load that in chrome://tracing
// or https://ui.perfetto.dev.
#include <cstdio>

#include "common/metrics.hpp"
#include "common/run_report.hpp"
#include "common/trace.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scan_cache.hpp"
#include "hotspot/scanner.hpp"
#include "layout/gds_stream.hpp"
#include "layout/gdsii.hpp"
#include "layout/layout_source.hpp"
#include "litho/labeler.hpp"

using namespace hsdl;

int main() {
  std::printf("== full-chip hotspot scan ==\n\n");

  const std::string report_path = telemetry::run_report_path_from_env();
  if (!report_path.empty()) {
    metrics::set_enabled(true);
    trace::set_enabled(true);
  }

  // Training data: clips from the same design rules as the chip.
  layout::GeneratorConfig gen_cfg;
  gen_cfg.stress = 0.5;
  layout::ClipGenerator gen(gen_cfg, 101);
  litho::HotspotLabeler labeler;
  std::vector<layout::LabeledClip> train;
  while (train.size() < 260) {
    layout::LabeledClip lc;
    lc.clip = gen.generate();
    lc.label = labeler.label(lc.clip);
    if (lc.label != layout::HotspotLabel::kUnknown)
      train.push_back(std::move(lc));
  }

  hotspot::CnnDetectorConfig cfg;
  cfg.biased.rounds = 2;
  cfg.biased.initial.max_iters = 600;
  cfg.biased.initial.decay_step = 300;
  cfg.biased.finetune.max_iters = 150;
  hotspot::CnnDetector detector(cfg);
  std::printf("training on %zu clips (%zu hotspots) ...\n", train.size(),
              layout::count_hotspots(train));
  detector.train(train);

  // A 6x6-tile chip (7.2 x 7.2 um).
  layout::Layout chip = layout::generate_chip(7200, 7200, gen_cfg, 2024);
  std::printf("chip: %.1f x %.1f um, %zu shapes, density %.2f\n",
              chip.extent().width() / 1000.0,
              chip.extent().height() / 1000.0, chip.shape_count(),
              chip.density());

  hotspot::ChipScanner scanner(hotspot::ScanConfig{1200, 1200});
  hotspot::ScanReport report = scanner.scan(layout::FlatSource(chip), detector);
  std::printf("\nscanned %zu windows in %.2f s -> %zu flagged (%.0f%%)\n",
              report.windows_scanned, report.scan_seconds,
              report.hits.size(), 100.0 * report.flagged_fraction());
  std::printf("screening-flow ODST : %.0f s\n", report.odst_seconds());
  std::printf("brute-force sim ODST: %.0f s (%.1fx slower)\n",
              report.full_simulation_seconds(),
              report.full_simulation_seconds() /
                  std::max(report.odst_seconds(), 1e-9));

  // Ground truth on the flagged windows + miss check on the rest.
  std::size_t true_hits = 0;
  for (const hotspot::ScanHit& hit : report.hits) {
    const layout::Clip clip = chip.extract_clip(hit.window).normalized();
    if (labeler.label(clip) == layout::HotspotLabel::kHotspot) ++true_hits;
  }
  std::printf("\nlitho verification of flagged windows: %zu/%zu are real "
              "hotspots\n", true_hits, report.hits.size());
  std::size_t missed = 0, windows_hotspot = 0;
  for (geom::Coord y = 0; y + 1200 <= 7200; y += 1200)
    for (geom::Coord x = 0; x + 1200 <= 7200; x += 1200) {
      const geom::Rect w = geom::Rect::from_xywh(x, y, 1200, 1200);
      if (labeler.label(chip.extract_clip(w).normalized()) !=
          layout::HotspotLabel::kHotspot)
        continue;
      ++windows_hotspot;
      bool flagged = false;
      for (const hotspot::ScanHit& hit : report.hits)
        flagged |= hit.window == w;
      missed += !flagged;
    }
  std::printf("real hotspot windows on chip: %zu, missed by scan: %zu\n",
              windows_hotspot, missed);

  // Hierarchical path (DESIGN.md §16): an array-heavy block scanned
  // through a HierSource with a CellScanCache — repeated macro
  // placements replay their scores instead of re-extracting and
  // re-running the CNN.
  layout::GdsLibrary hier_lib;
  {
    layout::GdsCell macro;
    macro.name = "MACRO";
    const layout::Clip tile = gen.generate();
    for (const geom::Rect& r : tile.shapes) {
      macro.boundaries.push_back(geom::Polygon::from_rect(r));
      macro.layers.push_back(1);
    }
    layout::GdsCell top;
    top.name = "TOP";
    top.refs.push_back({"MACRO", {0, 0}, 4, 4, 1200, 1200});
    hier_lib.cells = {macro, top};
  }
  const layout::HierLayout hier = layout::hier_from_library(hier_lib);
  const layout::HierSource hier_source(hier, 1);
  hotspot::CellScanCache cache;
  hotspot::InferenceEngine engine(detector);
  const hotspot::ScanReport hier_report =
      scanner.scan(hier_source, engine, &cache);
  const double reuse = hier_report.windows_scanned == 0
                           ? 0.0
                           : static_cast<double>(
                                 hier_report.windows_from_cache) /
                                 static_cast<double>(
                                     hier_report.windows_scanned);
  std::printf("\nhierarchical scan of a 4x4 macro array: %zu windows, "
              "%zu served by the cell cache (%.0f%% reuse)\n",
              hier_report.windows_scanned, hier_report.windows_from_cache,
              100.0 * reuse);

  if (!report_path.empty()) {
    telemetry::RunReport run("scan");
    json::Value scan = json::Value::object();
    scan.set("windows_scanned", json::Value(report.windows_scanned));
    scan.set("hits", json::Value(report.hits.size()));
    scan.set("scan_seconds", json::Value(report.scan_seconds));
    scan.set("windows_per_second", json::Value(report.windows_per_second()));
    scan.set("odst_seconds", json::Value(report.odst_seconds()));
    scan.set("true_hits", json::Value(true_hits));
    scan.set("missed", json::Value(missed));
    run.add("scan", std::move(scan));
    json::Value hier_scan = json::Value::object();
    hier_scan.set("windows_scanned",
                  json::Value(hier_report.windows_scanned));
    hier_scan.set("windows_from_cache",
                  json::Value(hier_report.windows_from_cache));
    hier_scan.set("cache_hit_rate", json::Value(reuse));
    hier_scan.set("windows_per_second",
                  json::Value(hier_report.windows_per_second()));
    run.add("hier_scan", std::move(hier_scan));
    run.write(report_path);
    trace::write_chrome_trace(report_path + ".trace.json");
    std::printf("\nwrote run report to %s and Chrome trace to %s.trace.json\n",
                report_path.c_str(), report_path.c_str());
  }
  return 0;
}
