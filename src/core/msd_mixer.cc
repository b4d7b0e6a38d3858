#include "core/msd_mixer.h"

#include "nn/revin.h"

#include <cmath>
#include <memory>
#include <string>

namespace msd {

std::vector<int64_t> MsdMixerConfig::UniformPatchSizes(int64_t input_length,
                                                       int64_t num_layers) {
  MSD_CHECK_GT(num_layers, 0);
  const int64_t p = std::max<int64_t>(
      1, static_cast<int64_t>(std::round(
             std::sqrt(static_cast<double>(input_length)))));
  return std::vector<int64_t>(static_cast<size_t>(num_layers), p);
}

MsdMixerLayer::MsdMixerLayer(const MsdMixerConfig& config, int64_t patch_size,
                             Rng& rng)
    : input_length_(config.input_length),
      patch_size_(patch_size),
      num_patches_(NumPatches(config.input_length, patch_size)),
      mode_(config.patching_mode) {
  MSD_CHECK_GT(patch_size, 0);
  MSD_CHECK_LE(patch_size, config.input_length);
  PatchCoderDims dims;
  dims.channels = config.channels;
  dims.num_patches = num_patches_;
  // In pooling mode each "patch" collapses to one pooled value.
  dims.patch_size = mode_ == PatchingMode::kPatching ? patch_size_ : 1;
  dims.model_dim = config.model_dim;
  dims.hidden_dim = config.hidden_dim;
  dims.drop_path = config.drop_path;
  encoder_ = RegisterModule("encoder", std::make_unique<PatchEncoder>(dims, rng));
  decoder_ = RegisterModule("decoder", std::make_unique<PatchDecoder>(dims, rng));
}

MsdMixerLayer::Result MsdMixerLayer::Decompose(const Variable& z) {
  MSD_CHECK_EQ(z.rank(), 3);
  MSD_CHECK_EQ(z.dim(2), input_length_);
  if (mode_ == PatchingMode::kPatching) {
    Variable patched = Patch(z, patch_size_);
    Variable embedding = encoder_->Forward(patched);
    Variable decoded = decoder_->Forward(embedding);
    return {embedding, Unpatch(decoded, input_length_)};
  }
  // -N ablation: average-pool each span to one value, encode as patch size 1,
  // and upsample the decoded series by nearest-neighbor repetition.
  Variable patched = Patch(z, patch_size_);                    // [B,C,L',p]
  Variable pooled = Mean(patched, {3}, /*keepdim=*/true);      // [B,C,L',1]
  Variable embedding = encoder_->Forward(pooled);              // [B,C,L',d]
  Variable decoded = decoder_->Forward(embedding);             // [B,C,L',1]
  Variable upsampled =
      Mul(decoded, Variable(Tensor::Ones({patch_size_})));     // broadcast
  return {embedding, Unpatch(upsampled, input_length_)};
}

MsdMixer::MsdMixer(const MsdMixerConfig& config, Rng& rng) : config_(config) {
  MSD_CHECK(!config.patch_sizes.empty()) << "need at least one layer";
  for (size_t i = 0; i < config.patch_sizes.size(); ++i) {
    layers_.push_back(RegisterModule(
        "layer" + std::to_string(i),
        std::make_unique<MsdMixerLayer>(config, config.patch_sizes[i], rng)));
  }
  if (config.task == TaskType::kReconstruction) return;
  if (config.head_dropout > 0.0f) {
    head_dropout_ = RegisterModule(
        "head_dropout", std::make_unique<Dropout>(config.head_dropout, rng));
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    const int64_t patches_term = config.pool_classification_head &&
                                         config.task == TaskType::kClassification
                                     ? 1
                                     : layers_[i]->num_patches();
    const int64_t flat = patches_term * config.model_dim;
    const int64_t in_features =
        config.task == TaskType::kForecast ? flat : flat * config.channels;
    const int64_t out_features = config.task == TaskType::kForecast
                                     ? config.horizon
                                     : config.num_classes;
    heads_.push_back(RegisterModule(
        "head" + std::to_string(i),
        std::make_unique<Linear>(in_features, out_features, rng)));
  }
}

Variable MsdMixer::HeadOutput(int64_t layer_index, const Variable& embedding) {
  const int64_t batch = embedding.dim(0);
  Linear* head = heads_[static_cast<size_t>(layer_index)];
  if (config_.task == TaskType::kForecast) {
    // Channel-shared head: [B, C, L'*d] -> [B, C, H].
    Variable flat = Reshape(embedding, {batch, config_.channels, -1});
    if (head_dropout_ != nullptr) flat = head_dropout_->Forward(flat);
    return head->Forward(flat);
  }
  // Classification: [B, C*L'*d] -> [B, M] (or [B, C*d] with pooling).
  Variable features = embedding;
  if (config_.pool_classification_head) {
    features = Mean(features, {2}, /*keepdim=*/false);  // [B, C, d]
  }
  Variable flat = Reshape(features, {batch, -1});
  if (head_dropout_ != nullptr) flat = head_dropout_->Forward(flat);
  return head->Forward(flat);
}

// msd-hot-path-safe: the frozen forward pass — tensor buffers come from the
// size-class pool, and serving runs it only when freezing plans
// (docs/COMPILER.md), so its interior is audited as a unit, not per call site.
MsdMixerOutput MsdMixer::Run(const Variable& x, bool collect_components) {
  MSD_CHECK_EQ(x.rank(), 3) << "MsdMixer expects [B, C, L]";
  MSD_CHECK_EQ(x.dim(1), config_.channels);
  MSD_CHECK_EQ(x.dim(2), config_.input_length);

  const bool instance_norm =
      config_.use_instance_norm && config_.task == TaskType::kForecast;
  RevInStats stats;
  Variable normalized = x;
  if (instance_norm) {
    stats = ComputeRevInStats(x);
    normalized = RevInNormalize(x, stats);
  }

  MsdMixerOutput out;
  Variable z = normalized;
  Variable head_sum;
  for (size_t i = 0; i < layers_.size(); ++i) {
    MsdMixerLayer::Result result = layers_[i]->Decompose(z);
    z = Sub(z, result.component);
    if (collect_components) out.components.push_back(result.component);
    if (!heads_.empty()) {
      Variable y = HeadOutput(static_cast<int64_t>(i), result.embedding);
      head_sum = head_sum.defined() ? Add(head_sum, y) : y;
    }
  }
  out.residual = z;
  if (config_.task == TaskType::kReconstruction) {
    out.prediction = Sub(x, z);
  } else {
    out.prediction =
        instance_norm ? RevInDenormalize(head_sum, stats) : head_sum;
  }
  return out;
}

}  // namespace msd
