#pragma once

// Phylogeny tree construction (bioinformatics, paper §5.2).
//
// The alignment-free method of Qi, Wang & Hao: each species is summarised
// by a *composition vector* (CV) — for every length-k amino-acid string,
// the relative deviation of its observed frequency from the frequency a
// (k-2)-order Markov model predicts from the (k-1)-string statistics:
//     a(s) = (p(s) - p0(s)) / p0(s),
//     p0(a1..ak) = p(a1..a_{k-1}) · p(a2..ak) / p(a2..a_{k-1}).
// The distance between two species is D = (1 - C) / 2 with C the cosine
// correlation of their (sparse) CVs. Building a CV scans the entire
// proteome (expensive, on the GPU in the original); comparing two CVs is a
// sparse dot product (cheap, irregular).
//
// The Uniprot reference proteomes are substituted by a synthetic phylogeny:
// an ancestral proteome is mutated down a binary clade tree, so sequence
// divergence — and therefore CV distance — follows the tree. Files are
// FASTA compressed with Rocket's LZ codec ("compressed FASTA", §5.2).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/application.hpp"
#include "storage/object_store.hpp"

namespace rocket::apps {

struct BioinformaticsConfig {
  std::uint32_t species = 16;        // number of proteomes (power of two
                                     // gives a balanced clade tree)
  std::uint32_t proteins = 60;       // proteins per proteome
  std::uint32_t protein_len_min = 120;
  std::uint32_t protein_len_max = 360;
  double mutation_rate = 0.02;       // substitutions per site per branch
  std::uint32_t k = 3;               // k-string length, 2..5
  std::uint64_t seed = 1;
};

class BioinformaticsDataset {
 public:
  BioinformaticsDataset(BioinformaticsConfig config,
                        storage::MemoryStore& store);

  std::uint32_t item_count() const { return config_.species; }
  std::string file_name(runtime::ItemId item) const;
  const BioinformaticsConfig& config() const { return config_; }

  /// Depth of the deepest common clade of two species in the generation
  /// tree (higher = more closely related); the oracle for tests.
  std::uint32_t clade_depth(runtime::ItemId a, runtime::ItemId b) const;

 private:
  BioinformaticsConfig config_;
};

/// Sparse composition vector: parallel arrays sorted by index.
struct CompositionVector {
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  std::size_t size() const { return indices.size(); }
};

/// Build the k-string CV of a residue sequence (Qi et al. formulas),
/// for 2 <= k <= 5. Throws on a byte outside the 20-residue alphabet.
CompositionVector build_composition_vector(std::string_view residues,
                                           std::uint32_t k);

/// Cosine correlation C of two sparse CVs; distance is (1 - C) / 2.
double cv_correlation(const CompositionVector& a, const CompositionVector& b);
double cv_distance(const CompositionVector& a, const CompositionVector& b);

class BioinformaticsApplication final : public runtime::Application {
 public:
  explicit BioinformaticsApplication(const BioinformaticsDataset& dataset)
      : dataset_(&dataset) {}

  std::string name() const override { return "bioinformatics"; }
  std::uint32_t item_count() const override { return dataset_->item_count(); }
  std::string file_name(runtime::ItemId item) const override {
    return dataset_->file_name(item);
  }

  /// CPU: decompress + FASTA-parse into the concatenated residue string.
  void parse(runtime::ItemId item, const ByteBuffer& file,
             runtime::HostBuffer& out) const override;

  /// GPU: scan the residues and build the sparse CV, with its squared
  /// norm, in place.
  void preprocess(runtime::ItemId item, gpu::DeviceBuffer& data) const override;

  /// GPU: CV distance D = (1 - C) / 2 (lower = more related), read in
  /// place; bit-identical to cv_distance.
  double compare(runtime::ItemId left, const gpu::DeviceBuffer& left_data,
                 runtime::ItemId right,
                 const gpu::DeviceBuffer& right_data) const override;

  Bytes slot_size() const override;

 private:
  const BioinformaticsDataset* dataset_;
};

}  // namespace rocket::apps
