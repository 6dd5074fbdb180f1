// Reference oracle for the flattened inference engine (ml/gbt_flat): the
// per-row pointer walk of a GradientBoostedTrees ensemble, for prediction
// and for Saabas path attribution. Tests require every serving path —
// both kernels, serial and pooled, predict and explain — to match it bit
// for bit.
//
// The oracle reads the model through its own save() text, which prints
// every double at precision 17 (an exact round trip), and walks the
// parsed trees in their original in-tree indexing. It therefore shares no
// code and no accessor with the FlatEnsemble compile it checks; the only
// production function it calls is ml::finalize_attribution, which is
// part of the explanation contract itself.
#pragma once

#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/gbt.hpp"
#include "ml/gbt_flat.hpp"

namespace xfl::ml::oracle {

class NodeWalk {
 public:
  /// Parse `model` (which must be fitted) out of its save() text.
  explicit NodeWalk(const GradientBoostedTrees& model) {
    std::stringstream text;
    model.save(text);
    std::string magic;
    std::size_t feature_count = 0;
    std::size_t importance_count = 0;
    text >> magic >> feature_count >> learning_rate_ >> base_score_ >>
        importance_count;
    double gain = 0.0;
    for (std::size_t i = 0; i < importance_count; ++i) text >> gain;
    std::size_t tree_count = 0;
    text >> tree_count;
    trees_.resize(tree_count);
    for (auto& tree : trees_) {
      std::size_t node_count = 0;
      text >> node_count;
      tree.resize(node_count);
      for (Node& node : tree)
        text >> node.feature >> node.threshold >> node.value >> node.left >>
            node.right;
    }
    if (!text || magic != "xfl-gbt-v1")
      throw std::runtime_error("NodeWalk: unparsable model text");
    for (auto& tree : trees_) fill_expectations(tree, 0);
  }

  /// base + learning_rate * leaf, accumulated in tree order.
  double predict(std::span<const double> features) const {
    double value = base_score_;
    for (const auto& tree : trees_)
      value += learning_rate_ * tree[leaf_of(tree, features)].value;
    return value;
  }

  /// Saabas attribution: every step credits learning_rate * (E[child] -
  /// E[parent]) to the split feature, then finalize_attribution sets the
  /// bias. contributions.size() must equal the model's feature count.
  /// Returns the prediction.
  double explain(std::span<const double> features,
                 std::span<double> contributions, double& bias) const {
    for (double& c : contributions) c = 0.0;
    double value = base_score_;
    for (const auto& tree : trees_) {
      std::size_t index = 0;
      while (tree[index].feature >= 0) {
        const Node& node = tree[index];
        const std::size_t child = step(node, features);
        contributions[static_cast<std::size_t>(node.feature)] +=
            learning_rate_ * (tree[child].expect - node.expect);
        index = child;
      }
      value += learning_rate_ * tree[index].value;
    }
    bias = finalize_attribution(value, contributions.data(),
                                contributions.size());
    return value;
  }

 private:
  struct Node {
    std::int32_t feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    /// Leaf-count-weighted subtree mean and its leaf count.
    double expect = 0.0;
    double weight = 0.0;
  };
  using Tree = std::vector<Node>;

  /// x <= threshold goes left; anything else, NaN included, goes right.
  /// This is the training binning convention: bin b holds values in
  /// (edges[b-1], edges[b]], so "bin <= split_bin" == "value <= threshold".
  static std::size_t step(const Node& node, std::span<const double> features) {
    return static_cast<std::size_t>(
        features[static_cast<std::size_t>(node.feature)] <= node.threshold
            ? node.left
            : node.right);
  }

  static std::size_t leaf_of(const Tree& tree,
                             std::span<const double> features) {
    std::size_t index = 0;
    while (tree[index].feature >= 0) index = step(tree[index], features);
    return index;
  }

  /// Bottom-up subtree means with the expression and operand order of the
  /// flat compile's attribution pass: (wl * el + wr * er) / (wl + wr).
  static void fill_expectations(Tree& tree, std::size_t n) {
    Node& node = tree[n];
    if (node.feature < 0) {
      node.expect = node.value;
      node.weight = 1.0;
      return;
    }
    const auto l = static_cast<std::size_t>(node.left);
    const auto r = static_cast<std::size_t>(node.right);
    fill_expectations(tree, l);
    fill_expectations(tree, r);
    const double wl = tree[l].weight;
    const double wr = tree[r].weight;
    node.weight = wl + wr;
    node.expect = (wl * tree[l].expect + wr * tree[r].expect) / node.weight;
  }

  double learning_rate_ = 0.0;
  double base_score_ = 0.0;
  std::vector<Tree> trees_;
};

}  // namespace xfl::ml::oracle
