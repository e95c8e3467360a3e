// Reproduces Table 1: the CNN configuration (layer, kernel size, stride,
// output shape), plus measured per-layer forward cost — the realized
// architecture is checked against the paper's numbers at startup.
#include <cstdio>

#include "common.hpp"
#include "common/timer.hpp"
#include "common/string_util.hpp"
#include "hotspot/cnn.hpp"
#include "nn/workspace.hpp"

namespace {

using namespace hsdl;

const char* kPaperRows[][2] = {
    {"conv1-1", "12x12x16"}, {"conv1-2", "12x12x16"},
    {"maxpooling1", "6x6x16"}, {"conv2-1", "6x6x32"},
    {"conv2-2", "6x6x32"}, {"maxpooling2", "3x3x32"},
    {"fc1", "250"}, {"fc2", "2"}};

std::string shape_str(const std::vector<std::size_t>& s) {
  // Table 1 writes feature maps as H x W x C and FC layers as node counts.
  if (s.size() == 4)
    return strfmt("%zux%zux%zu", s[2], s[3], s[1]);
  return strfmt("%zu", s[1]);
}

}  // namespace

int main() {
  bench::print_header(
      "Table 1 — Neural Network Configuration (DAC'17 reproduction)");

  hotspot::HotspotCnn model;  // paper defaults: k=32, n=12
  const std::vector<std::size_t> input = {1, 32, 12, 12};
  auto summary = model.net().summary(input);

  std::printf("%-14s %-12s %-7s %-14s %-10s\n", "Layer", "Kernel Size",
              "Stride", "Output Node #", "fwd (us)");

  // Time each layer's forward on a batch of 1.
  nn::Tensor x(input, 0.5f);
  std::vector<double> layer_us(summary.size(), 0.0);
  constexpr int kReps = 50;
  for (int rep = 0; rep < kReps; ++rep) {
    nn::Tensor t = x;
    for (std::size_t i = 0; i < model.net().size(); ++i) {
      WallTimer timer;
      t = model.net().layer(i).forward(t, false);
      layer_us[i] += timer.seconds() * 1e6 / kReps;
    }
  }

  // Table 1 lists only the named layers; activations/dropout/flatten are
  // folded into their host rows the way the paper presents them.
  struct Row {
    const char* name;
    const char* kernel;
    const char* stride;
    std::size_t layer_index;  // index into summary for the shape
  };
  const Row rows[] = {
      {"conv1-1", "3", "1", 0},  {"conv1-2", "3", "1", 2},
      {"maxpooling1", "2", "2", 4}, {"conv2-1", "3", "1", 5},
      {"conv2-2", "3", "1", 7}, {"maxpooling2", "2", "2", 9},
      {"fc1", "-", "-", 11},     {"fc2", "-", "-", 14}};

  bool all_match = true;
  for (std::size_t r = 0; r < std::size(rows); ++r) {
    const std::string shape = shape_str(summary[rows[r].layer_index].second);
    const bool match = shape == kPaperRows[r][1];
    all_match &= match;
    std::printf("%-14s %-12s %-7s %-14s %-10.1f %s\n", rows[r].name,
                rows[r].kernel, rows[r].stride, shape.c_str(),
                layer_us[rows[r].layer_index],
                match ? "" : "<- MISMATCH vs paper");
  }

  std::printf("\ntotal learnable parameters : %zu\n",
              model.net().param_count());
  nn::WorkspaceArena ws;
  WallTimer timer;
  for (int i = 0; i < 20; ++i) ws.recycle(model.probabilities(x, ws));
  std::printf("full forward (batch 1)     : %.2f ms\n",
              timer.millis() / 20);
  nn::Tensor batch({32, 32, 12, 12}, 0.5f);
  timer.reset();
  for (int i = 0; i < 5; ++i) ws.recycle(model.probabilities(batch, ws));
  std::printf("full forward (batch 32)    : %.2f ms\n", timer.millis() / 5);
  std::printf("\nTable 1 shape check        : %s\n",
              all_match ? "ALL ROWS MATCH the paper" : "MISMATCH");
  return all_match ? 0 : 1;
}
