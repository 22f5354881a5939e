#include "models/zoo.h"

#include "core/error.h"
#include "models/googlenet_like.h"
#include "models/har_cnn.h"
#include "models/mobilenet_like.h"
#include "models/resnet_like.h"
#include "models/transformer_lite.h"

namespace mhbench::models {
namespace {

FamilyPtr ResNet(const std::string& name, std::vector<int> channels,
                 std::vector<int> blocks, int classes) {
  ResNetLikeConfig c;
  c.name = name;
  c.num_classes = classes;
  c.stage_channels = std::move(channels);
  c.stage_blocks = std::move(blocks);
  return std::make_shared<ResNetLike>(c);
}

FamilyPtr MobileNet(const std::string& name, std::vector<int> channels,
                    std::vector<int> blocks, int classes, int expansion = 2) {
  MobileNetLikeConfig c;
  c.name = name;
  c.num_classes = classes;
  c.stage_channels = std::move(channels);
  c.stage_blocks = std::move(blocks);
  c.expansion = expansion;
  return std::make_shared<MobileNetLike>(c);
}

FamilyPtr Transformer(const std::string& name, int blocks, int classes) {
  TransformerLiteConfig c;
  c.name = name;
  c.num_blocks = blocks;
  c.num_classes = classes;
  return std::make_shared<TransformerLite>(c);
}

// ALBERT analogue: a transformer whose tokens embed into 8 dims and are
// projected up to d_model (ALBERT's factorized embedding).  Its cross-layer
// parameter sharing is modeled at the cost level only (device cost
// descriptors): the trainable network keeps per-layer parameters so
// depth-heterogeneous algorithms have distinct layers to aggregate.
FamilyPtr Albert(const std::string& name, int d_model, int ffn, int blocks,
                 int classes) {
  TransformerLiteConfig c;
  c.name = name;
  c.d_model = d_model;
  c.ffn_hidden = ffn;
  c.num_blocks = blocks;
  c.num_classes = classes;
  c.factorized_embed_dim = 8;
  return std::make_shared<TransformerLite>(c);
}

FamilyPtr Har(const std::string& name, std::vector<int> channels,
              std::vector<int> blocks, int classes) {
  HarCnnConfig c;
  c.name = name;
  c.num_classes = classes;
  c.stage_channels = std::move(channels);
  c.stage_blocks = std::move(blocks);
  return std::make_shared<HarCnn>(c);
}

}  // namespace

int TaskNumClasses(const std::string& task_name) {
  // CIFAR-100 is scaled to 20 (coarse-label analogue) so the sim-scale
  // models remain trainable on CPU; see DESIGN.md.
  if (task_name == "cifar10") return 10;
  if (task_name == "cifar100") return 20;
  if (task_name == "agnews") return 4;
  if (task_name == "stackoverflow") return 5;
  if (task_name == "harbox") return 5;
  if (task_name == "ucihar") return 6;
  throw Error("unknown task: " + task_name);
}

const std::vector<std::string>& AllTaskNames() {
  static const std::vector<std::string> kNames = {
      "cifar10", "cifar100", "agnews", "stackoverflow", "harbox", "ucihar"};
  return kNames;
}

std::vector<FamilyPtr> MakeMixedCvFamilies(int num_classes) {
  std::vector<FamilyPtr> out;
  {
    GoogleNetLikeConfig c;  // 1x1-dominated Inception blocks: the smallest
    c.num_classes = num_classes;
    out.push_back(std::make_shared<GoogleNetLike>(c));
  }
  out.push_back(MobileNet("mobilenetv2-like", {8, 16}, {1, 1}, num_classes));
  out.push_back(ResNet("resnet-like", {12, 24}, {2, 2}, num_classes));
  // EfficientNet-B1 analogue: MBConv blocks at EfficientNet's expansion 4,
  // B0's {8, 16} x {1, 2} scaled by one compound step (~1.1x wider, one
  // block deeper): the largest.
  out.push_back(MobileNet("efficientnet-like", {9, 18}, {1, 3}, num_classes,
                          /*expansion=*/4));
  return out;
}

TaskModels MakeTaskModels(const std::string& task_name) {
  TaskModels out;
  if (task_name == "cifar100") {
    const int classes = TaskNumClasses(task_name);
    // Primary: ResNet-101 analogue (deepest of the family).
    out.primary = ResNet("resnet101-like", {8, 16}, {2, 2}, classes);
    // Topology: ResNet family 18/34/50/101 analogues.
    out.topology = {
        ResNet("resnet18-like", {8, 16}, {1, 1}, classes),
        ResNet("resnet34-like", {8, 16}, {2, 1}, classes),
        ResNet("resnet50-like", {8, 16}, {2, 2}, classes),
        ResNet("resnet101-like", {12, 24}, {2, 2}, classes),
    };
  } else if (task_name == "cifar10") {
    const int classes = TaskNumClasses(task_name);
    // Primary: MobileNetV2 analogue.
    out.primary = MobileNet("mobilenetv2-like", {8, 16}, {2, 2}, classes);
    // Topology: MobileNet family (V3-small / V2 / V3-large analogues).
    out.topology = {
        MobileNet("mobilenetv3s-like", {8, 16}, {1, 1}, classes),
        MobileNet("mobilenetv2-like", {8, 16}, {2, 2}, classes),
        MobileNet("mobilenetv3l-like", {12, 24}, {2, 2}, classes),
    };
  } else if (task_name == "agnews") {
    const int classes = TaskNumClasses(task_name);
    out.primary = Transformer("transformer-lite", 4, classes);
    // The paper omits topology heterogeneity on AG-News; provide a small
    // transformer family anyway for completeness.
    out.topology = {
        Transformer("transformer-small", 2, classes),
        Transformer("transformer-base", 4, classes),
    };
  } else if (task_name == "stackoverflow") {
    const int classes = TaskNumClasses(task_name);
    out.primary = Albert("albert-base-like", 16, 32, 4, classes);
    // ALBERT family: base / large / xxlarge analogues.
    out.topology = {
        Albert("albert-base-like", 16, 32, 4, classes),
        Albert("albert-large-like", 16, 48, 6, classes),
        Albert("albert-xxlarge-like", 32, 64, 6, classes),
    };
  } else if (task_name == "harbox") {
    const int classes = TaskNumClasses(task_name);
    out.primary = Har("har-cnn", {8, 16}, {2, 2}, classes);
    out.topology = {
        Har("har-cnn-small", {8, 16}, {1, 1}, classes),
        Har("har-cnn", {8, 16}, {2, 2}, classes),
        Har("har-cnn-large", {12, 24}, {2, 2}, classes),
    };
  } else if (task_name == "ucihar") {
    const int classes = TaskNumClasses(task_name);
    out.primary = Har("har-cnn", {8, 16}, {2, 2}, classes);
    out.topology = {
        Har("har-cnn-small", {8, 16}, {1, 1}, classes),
        Har("har-cnn", {8, 16}, {2, 2}, classes),
        Har("har-cnn-large", {12, 24}, {2, 2}, classes),
    };
  } else {
    throw Error("unknown task: " + task_name);
  }
  return out;
}

}  // namespace mhbench::models
