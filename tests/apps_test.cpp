#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/bioinformatics.hpp"
#include "apps/forensics.hpp"
#include "apps/image.hpp"
#include "apps/json.hpp"
#include "apps/microscopy.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"

namespace rocket::apps {
namespace {

// --- image codec ---

Image noisy_gradient(std::uint32_t w, std::uint32_t h, std::uint64_t seed) {
  Rng rng(seed);
  Image img = make_image(w, h);
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      img.at(x, y) = static_cast<float>(
          64.0 + 0.5 * x + 0.3 * y + rng.normal(0, 3.0));
    }
  }
  return img;
}

TEST(ImageCodec, RoundTripIsCloseAtHighQuality) {
  const Image original = noisy_gradient(64, 48, 1);
  const ByteBuffer encoded = encode_image(original, 0.95);
  const Image decoded = decode_image(encoded);
  ASSERT_EQ(decoded.width, original.width);
  ASSERT_EQ(decoded.height, original.height);
  OnlineStats error;
  for (std::size_t i = 0; i < original.size(); ++i) {
    error.add(std::abs(decoded.pixels[i] - original.pixels[i]));
  }
  EXPECT_LT(error.mean(), 2.5) << "high quality should be near-lossless";
}

TEST(ImageCodec, LowerQualityMeansSmallerFiles) {
  const Image img = noisy_gradient(64, 64, 2);
  const auto high = encode_image(img, 0.95).size();
  const auto low = encode_image(img, 0.2).size();
  EXPECT_LT(low, high);
}

TEST(ImageCodec, RejectsCorruptData) {
  const Image img = noisy_gradient(16, 16, 3);
  ByteBuffer bytes = encode_image(img);
  bytes.resize(bytes.size() / 3);
  EXPECT_THROW(decode_image(bytes), std::runtime_error);
  EXPECT_THROW(decode_image(ByteBuffer{1, 2, 3}), std::runtime_error);
}

TEST(ImageOps, BoxBlurPreservesConstantImages) {
  const Image constant = make_image(32, 32, 77.0f);
  const Image blurred = box_blur(constant, 3);
  for (const float p : blurred.pixels) EXPECT_NEAR(p, 77.0f, 1e-4f);
}

TEST(ImageOps, ResidualIsZeroMeanUnitNorm) {
  const Image img = noisy_gradient(64, 64, 4);
  const auto residual = noise_residual(img);
  double mean = 0, norm2 = 0;
  for (const float r : residual) {
    mean += r;
    norm2 += static_cast<double>(r) * r;
  }
  EXPECT_NEAR(mean / residual.size(), 0.0, 1e-6);
  EXPECT_NEAR(norm2, 1.0, 1e-4);
}

TEST(ImageOps, NccBoundsAndIdentity) {
  const Image img = noisy_gradient(32, 32, 5);
  const auto a = noise_residual(img);
  EXPECT_NEAR(normalized_cross_correlation(a, a), 1.0, 1e-9);
  const auto b = noise_residual(noisy_gradient(32, 32, 6));
  const double c = normalized_cross_correlation(a, b);
  EXPECT_GE(c, -1.0);
  EXPECT_LE(c, 1.0);
}

// --- forensics end-to-end discrimination ---

TEST(Forensics, SameCameraPairsCorrelateHigher) {
  storage::MemoryStore store;
  ForensicsConfig cfg;
  cfg.cameras = 3;
  cfg.images_per_camera = 4;
  cfg.width = 96;
  cfg.height = 64;
  cfg.seed = 11;
  ForensicsDataset dataset(cfg, store);
  ForensicsApplication app(dataset);

  // Drive the pipeline manually: parse → preprocess → compare.
  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  auto load = [&](runtime::ItemId item) {
    runtime::HostBuffer parsed;
    app.parse(item, store.read(app.file_name(item)), parsed);
    auto buffer = device.allocate(app.slot_size());
    std::copy(parsed.begin(), parsed.end(), buffer.data());
    app.preprocess(item, buffer);
    return buffer;
  };

  OnlineStats same, cross;
  std::vector<gpu::DeviceBuffer> items;
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    items.push_back(load(i));
  }
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    for (runtime::ItemId j = i + 1; j < dataset.item_count(); ++j) {
      const double score = app.compare(i, items[i], j, items[j]);
      if (dataset.camera_of(i) == dataset.camera_of(j)) {
        same.add(score);
      } else {
        cross.add(score);
      }
    }
  }
  EXPECT_GT(same.mean(), cross.mean() + 3 * cross.stddev())
      << "PRNU must separate same-camera pairs (same mean=" << same.mean()
      << " cross mean=" << cross.mean() << ")";
}

// The compare kernel reads the slot in place with the norms preprocess
// stored there; its scores must equal the reference NCC of the residuals
// exactly, not just closely.
TEST(Forensics, CompareMatchesReferenceNccBitForBit) {
  storage::MemoryStore store;
  ForensicsConfig cfg;
  cfg.cameras = 2;
  cfg.images_per_camera = 3;
  cfg.width = 64;
  cfg.height = 48;
  cfg.seed = 5;
  ForensicsDataset dataset(cfg, store);
  ForensicsApplication app(dataset);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  std::vector<gpu::DeviceBuffer> slots;
  std::vector<std::vector<float>> residuals;
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    const ByteBuffer file = store.read(app.file_name(i));
    runtime::HostBuffer parsed;
    app.parse(i, file, parsed);
    auto buffer = device.allocate(app.slot_size());
    std::copy(parsed.begin(), parsed.end(), buffer.data());
    app.preprocess(i, buffer);
    slots.push_back(std::move(buffer));
    residuals.push_back(noise_residual(decode_image(file)));
  }
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    for (runtime::ItemId j = 0; j < dataset.item_count(); ++j) {
      EXPECT_EQ(app.compare(i, slots[i], j, slots[j]),
                normalized_cross_correlation(residuals[i], residuals[j]))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

// --- JSON ---

TEST(Json, ParsesDocuments) {
  const auto doc = json_parse(std::string(
      R"({"name": "particle", "n": 3, "ok": true, "pts": [[1.5, -2], [0, 4e2]], "none": null})"));
  EXPECT_EQ(doc.at("name").as_string(), "particle");
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), 3.0);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  const auto& pts = doc.at("pts").as_array();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].as_array()[1].as_number(), -2.0);
  EXPECT_DOUBLE_EQ(pts[1].as_array()[1].as_number(), 400.0);
}

TEST(Json, DumpParseRoundTrip) {
  JsonObject obj;
  obj["a"] = JsonValue(1.5);
  obj["b"] = JsonValue("text with \"quotes\"");
  JsonArray arr;
  arr.emplace_back(true);
  arr.emplace_back(nullptr);
  obj["c"] = JsonValue(std::move(arr));
  const std::string text = JsonValue(std::move(obj)).dump();
  const auto parsed = json_parse(text);
  EXPECT_DOUBLE_EQ(parsed.at("a").as_number(), 1.5);
  EXPECT_EQ(parsed.at("b").as_string(), "text with \"quotes\"");
  EXPECT_TRUE(parsed.at("c").as_array()[0].as_bool());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(std::string("{")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("[1, 2,")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("{\"a\" 1}")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("12 34")), std::runtime_error);
  EXPECT_THROW(json_parse(std::string("truu")), std::runtime_error);
}

// --- microscopy ---

std::vector<Point2> ring_points(int count, double radius, double rot,
                                Point2 shift, double noise, Rng& rng) {
  std::vector<Point2> pts;
  for (int i = 0; i < count; ++i) {
    const double angle = 6.2831853 * i / count + rot;
    pts.push_back(Point2{radius * std::cos(angle) + shift.x + rng.normal(0, noise),
                         radius * std::sin(angle) + shift.y + rng.normal(0, noise)});
  }
  return pts;
}

TEST(Microscopy, GmmOverlapPeaksAtTrueRotation) {
  Rng rng(3);
  const auto base = ring_points(40, 30.0, 0.0, {0, 0}, 0.5, rng);
  // A copy rotated by 0.5 rad: overlap at 0.5 must beat overlap at 0.
  const auto rotated = ring_points(40, 30.0, 0.5, {0, 0}, 0.5, rng);
  const double aligned = gmm_overlap(base, rotated, 0.5, {0, 0}, 2.0);
  const double misaligned = gmm_overlap(base, rotated, 0.0, {0, 0}, 2.0);
  EXPECT_GT(aligned, misaligned);
}

TEST(Microscopy, RegistrationRecoversAlignment) {
  Rng rng(7);
  const auto a = ring_points(30, 40.0, 0.0, {0, 0}, 1.0, rng);
  const auto b = ring_points(30, 40.0, 0.9, {5.0, -3.0}, 1.0, rng);
  const auto result = register_particles(a, b, 2.0);
  EXPECT_GT(result.score, 0.4) << "registration should find strong overlap";
  EXPECT_GT(result.iterations, 50) << "optimiser must do real work";
  // Same-structure particles align far better than structure vs noise.
  std::vector<Point2> noise_cloud;
  for (int i = 0; i < 30; ++i) {
    noise_cloud.push_back(Point2{rng.uniform(-40, 40), rng.uniform(-40, 40)});
  }
  const auto nonsense = register_particles(a, noise_cloud, 2.0);
  EXPECT_GT(result.score, nonsense.score);
}

TEST(Microscopy, DatasetRoundTripThroughApplication) {
  storage::MemoryStore store;
  MicroscopyConfig cfg;
  cfg.particles = 4;
  // Clouds of 8-16 points: a compare costs O(points²) exp calls per
  // optimiser step, and the round trip does not need the default ~500.
  cfg.binding_sites = 8;
  cfg.localizations_per_site_min = 1;
  cfg.localizations_per_site_max = 2;
  cfg.seed = 5;
  MicroscopyDataset dataset(cfg, store);
  MicroscopyApplication app(dataset);
  EXPECT_EQ(app.item_count(), 4u);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  runtime::HostBuffer parsed;
  app.parse(0, store.read(app.file_name(0)), parsed);
  EXPECT_LE(parsed.size(), app.slot_size());
  auto b0 = device.allocate(app.slot_size());
  std::copy(parsed.begin(), parsed.end(), b0.data());
  app.parse(1, store.read(app.file_name(1)), parsed);
  auto b1 = device.allocate(app.slot_size());
  std::copy(parsed.begin(), parsed.end(), b1.data());

  // All particles share the ring template: registration must find overlap.
  const double score = app.compare(0, b0, 1, b1);
  EXPECT_GT(score, 0.3);
}

// --- bioinformatics ---

// The hash-map CV build that preceded the dense-table one, kept verbatim
// as the reference for its bits.
namespace reference {

constexpr char kAlphabet[] = "ACDEFGHIKLMNPQRSTVWY";
constexpr std::uint32_t kAlphabetSize = 20;

std::uint32_t residue_code(char c) {
  const char* pos = std::strchr(kAlphabet, c);
  if (pos == nullptr) throw std::runtime_error("bad residue in FASTA");
  return static_cast<std::uint32_t>(pos - kAlphabet);
}

CompositionVector build_composition_vector(const std::string& residues,
                                           std::uint32_t k) {
  ROCKET_CHECK(k >= 2, "composition vectors require k >= 2");
  const std::size_t n = residues.size();
  CompositionVector cv;
  if (n < k) return cv;

  // Count k, k-1 and k-2 strings in one pass each, as packed base-20 codes.
  std::unordered_map<std::uint32_t, std::uint32_t> count_k, count_k1, count_k2;
  auto scan = [&](std::uint32_t len,
                  std::unordered_map<std::uint32_t, std::uint32_t>& counts) {
    if (n < len) return;
    std::uint32_t code = 0;
    std::uint32_t modulus = 1;
    for (std::uint32_t i = 0; i + 1 < len; ++i) modulus *= kAlphabetSize;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = residue_code(residues[i]);
      code = (code % modulus) * kAlphabetSize + c;
      if (i + 1 >= len) ++counts[code];
    }
  };
  scan(k, count_k);
  scan(k - 1, count_k1);
  scan(k - 2, count_k2);

  const auto total_k = static_cast<double>(n - k + 1);
  const auto total_k1 = static_cast<double>(n - (k - 1) + 1);
  const auto total_k2 = static_cast<double>(n - (k - 2) + 1);

  std::uint32_t suffix_modulus = 1;  // 20^(k-1)
  for (std::uint32_t i = 0; i + 1 < k; ++i) suffix_modulus *= kAlphabetSize;
  std::uint32_t mid_modulus = suffix_modulus / kAlphabetSize;  // 20^(k-2)

  cv.indices.reserve(count_k.size());
  cv.values.reserve(count_k.size());
  for (const auto& [code, count] : count_k) {
    // code = a1..ak packed base-20. Prefix = a1..a_{k-1}, suffix = a2..ak,
    // middle = a2..a_{k-1}.
    const std::uint32_t prefix = code / kAlphabetSize;
    const std::uint32_t suffix = code % suffix_modulus;
    const std::uint32_t middle = prefix % mid_modulus;

    const double p = count / total_k;
    const auto it_prefix = count_k1.find(prefix);
    const auto it_suffix = count_k1.find(suffix);
    const auto it_middle = count_k2.find(middle);
    if (it_prefix == count_k1.end() || it_suffix == count_k1.end() ||
        it_middle == count_k2.end() || it_middle->second == 0) {
      continue;
    }
    const double p_prefix = it_prefix->second / total_k1;
    const double p_suffix = it_suffix->second / total_k1;
    const double p_middle = it_middle->second / total_k2;
    const double p0 = p_prefix * p_suffix / p_middle;
    if (p0 <= 0.0) continue;
    cv.indices.push_back(code);
    cv.values.push_back(static_cast<float>((p - p0) / p0));
  }

  // Sort by index for the merge-style dot product.
  std::vector<std::size_t> order(cv.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cv.indices[a] < cv.indices[b];
  });
  CompositionVector sorted;
  sorted.indices.reserve(cv.size());
  sorted.values.reserve(cv.size());
  for (const auto idx : order) {
    sorted.indices.push_back(cv.indices[idx]);
    sorted.values.push_back(cv.values[idx]);
  }
  return sorted;
}

}  // namespace reference

/// Asserts that the k = 3 CV of `residues` has the reference's indices and
/// the reference's value bits.
void expect_reference_cv(const std::string& residues) {
  const CompositionVector cv = build_composition_vector(residues, 3);
  const CompositionVector ref =
      reference::build_composition_vector(residues, 3);
  ASSERT_EQ(cv.indices, ref.indices);
  ASSERT_EQ(cv.values.size(), ref.values.size());
  for (std::size_t i = 0; i < cv.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(cv.values[i]),
              std::bit_cast<std::uint32_t>(ref.values[i]))
        << "entry " << i << " (index " << cv.indices[i] << ")";
  }
}

/// A residue string of `length` in which every 3-string is distinct, so
/// each one is a CV entry: the largest CV a string of that length has.
std::string all_distinct_3strings(std::size_t length) {
  std::string residues = "AA";
  std::set<std::string> seen;
  while (residues.size() < length) {
    const std::string tail = residues.substr(residues.size() - 2);
    for (std::size_t c = residues.size();; ++c) {
      const char next = "ACDEFGHIKLMNPQRSTVWY"[c % 20];
      if (seen.insert(tail + next).second) {
        residues += next;
        break;
      }
    }
  }
  return residues;
}

TEST(Bioinformatics, CompositionVectorProperties) {
  Rng rng(9);
  std::string seq;
  for (int i = 0; i < 5000; ++i) {
    seq += "ACDEFGHIKLMNPQRSTVWY"[rng.uniform_index(20)];
  }
  const auto cv = build_composition_vector(seq, 3);
  EXPECT_GT(cv.size(), 100u);
  // Sorted unique indices.
  for (std::size_t i = 1; i < cv.size(); ++i) {
    EXPECT_LT(cv.indices[i - 1], cv.indices[i]);
  }
  // Self-correlation is exactly 1.
  EXPECT_NEAR(cv_correlation(cv, cv), 1.0, 1e-9);
  EXPECT_NEAR(cv_distance(cv, cv), 0.0, 1e-9);
}

TEST(Bioinformatics, DistanceTracksMutationLoad) {
  Rng rng(13);
  std::string base;
  for (int i = 0; i < 8000; ++i) {
    base += "ACDEFGHIKLMNPQRSTVWY"[rng.uniform_index(20)];
  }
  auto mutate_copy = [&](double rate, std::uint64_t seed) {
    Rng mrng(seed);
    std::string out = base;
    for (auto& c : out) {
      if (mrng.uniform() < rate) {
        c = "ACDEFGHIKLMNPQRSTVWY"[mrng.uniform_index(20)];
      }
    }
    return out;
  };
  const auto cv0 = build_composition_vector(base, 3);
  const auto near = build_composition_vector(mutate_copy(0.02, 1), 3);
  const auto far = build_composition_vector(mutate_copy(0.3, 2), 3);
  const double d_near = cv_distance(cv0, near);
  const double d_far = cv_distance(cv0, far);
  EXPECT_LT(d_near, d_far) << "more mutations → larger CV distance";
  EXPECT_GT(d_near, 0.0);
  EXPECT_LE(d_far, 1.0);
}

TEST(Bioinformatics, CladeStructureIsRecoverable) {
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 8;
  cfg.proteins = 30;
  cfg.mutation_rate = 0.04;
  cfg.seed = 21;
  BioinformaticsDataset dataset(cfg, store);
  BioinformaticsApplication app(dataset);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  std::vector<gpu::DeviceBuffer> cvs;
  for (runtime::ItemId i = 0; i < 8; ++i) {
    runtime::HostBuffer parsed;
    app.parse(i, store.read(app.file_name(i)), parsed);
    auto buffer = device.allocate(app.slot_size());
    std::copy(parsed.begin(), parsed.end(), buffer.data());
    app.preprocess(i, buffer);
    cvs.push_back(std::move(buffer));
  }

  // Average distance within the deepest clades (siblings) must be smaller
  // than across the root split.
  OnlineStats sibling, distant;
  for (runtime::ItemId i = 0; i < 8; ++i) {
    for (runtime::ItemId j = i + 1; j < 8; ++j) {
      const double d = app.compare(i, cvs[i], j, cvs[j]);
      if (dataset.clade_depth(i, j) == 2) {
        sibling.add(d);
      } else if (dataset.clade_depth(i, j) == 0) {
        distant.add(d);
      }
    }
  }
  EXPECT_LT(sibling.mean(), distant.mean())
      << "sibling species must be closer than cross-root pairs";
}

/// Runs one residue string through the application's preprocess in a
/// device slot of exactly slot_size() bytes.
gpu::DeviceBuffer prepared_cv_slot(const BioinformaticsApplication& app,
                                   gpu::VirtualDevice& device,
                                   const std::string& residues) {
  auto buffer = device.allocate(app.slot_size());
  std::copy(residues.begin(), residues.end(), buffer.data());
  app.preprocess(0, buffer);
  return buffer;
}

TEST(Bioinformatics, CompareMatchesCvDistanceBitForBit) {
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 8;
  cfg.proteins = 20;
  cfg.mutation_rate = 0.05;
  cfg.seed = 3;
  BioinformaticsDataset dataset(cfg, store);
  BioinformaticsApplication app(dataset);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  std::vector<gpu::DeviceBuffer> slots;
  std::vector<CompositionVector> cvs;
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    runtime::HostBuffer parsed;
    app.parse(i, store.read(app.file_name(i)), parsed);
    const std::string residues(parsed.begin(), parsed.end());
    slots.push_back(prepared_cv_slot(app, device, residues));
    cvs.push_back(build_composition_vector(residues, cfg.k));
  }
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    for (runtime::ItemId j = 0; j < dataset.item_count(); ++j) {
      EXPECT_EQ(app.compare(i, slots[i], j, slots[j]),
                cv_distance(cvs[i], cvs[j]))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(Bioinformatics, SlotSizeHoldsWorstCaseCv) {
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 2;
  cfg.proteins = 3;
  cfg.protein_len_min = 100;
  cfg.protein_len_max = 100;
  cfg.k = 3;
  BioinformaticsDataset dataset(cfg, store);
  BioinformaticsApplication app(dataset);

  // The largest CV a proteome of this config can have: the maximum residue
  // count with every 3-string distinct.
  const std::size_t max_residues = cfg.proteins * cfg.protein_len_max;
  const std::string residues = all_distinct_3strings(max_residues);
  const CompositionVector cv = build_composition_vector(residues, cfg.k);
  ASSERT_EQ(cv.size(), max_residues - cfg.k + 1);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  const gpu::DeviceBuffer worst = prepared_cv_slot(app, device, residues);
  EXPECT_EQ(app.compare(0, worst, 0, worst), cv_distance(cv, cv));
}

TEST(Bioinformatics, BuildMatchesReferenceBitForBit) {
  // Every species of a dataset at the benchmark's proteome shape.
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 128;
  cfg.proteins = 6;
  cfg.protein_len_min = 220;
  cfg.protein_len_max = 260;
  BioinformaticsDataset dataset(cfg, store);
  BioinformaticsApplication app(dataset);
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    runtime::HostBuffer parsed;
    app.parse(i, store.read(app.file_name(i)), parsed);
    SCOPED_TRACE("species " + std::to_string(i));
    expect_reference_cv(std::string(parsed.begin(), parsed.end()));
  }

  // Edge cases: empty, n < k, n == k, a homopolymer, and the largest CV
  // of the worst-case test below.
  expect_reference_cv("");
  expect_reference_cv("AC");
  expect_reference_cv("ACD");
  expect_reference_cv(std::string(500, 'W'));
  expect_reference_cv(all_distinct_3strings(300));
}

TEST(Bioinformatics, RejectsEmbeddedNulResidue) {
  EXPECT_THROW(build_composition_vector(std::string("ACD\0FG", 6), 3),
               std::runtime_error);
  for (const char bad : {'B', 'a', '\n', '\xff'}) {
    EXPECT_THROW(build_composition_vector(std::string("ACDE") + bad, 3),
                 std::runtime_error)
        << "byte " << static_cast<int>(static_cast<unsigned char>(bad));
  }
  EXPECT_EQ(build_composition_vector("ACDEFGHIKLMNPQRSTVWY", 3).size(), 18u);
}

TEST(Bioinformatics, PairCvUsesZeroOrderModel) {
  // For k = 2 the (k-2)-string is empty and occurs at every position, so
  // p0(a1 a2) = p(a1) p(a2). In "CDCD", p(C) = p(D) = 1/2, CD occurs twice
  // and DC once.
  const CompositionVector cv = build_composition_vector("CDCD", 2);
  ASSERT_EQ(cv.indices, (std::vector<std::uint32_t>{1 * 20 + 2, 2 * 20 + 1}));
  EXPECT_FLOAT_EQ(cv.values[0], (2.0 / 3 - 0.25) / 0.25);
  EXPECT_FLOAT_EQ(cv.values[1], (1.0 / 3 - 0.25) / 0.25);
  // Dense tables bound k.
  EXPECT_DEATH(build_composition_vector("ACDEFG", 1), "2 <= k <= 5");
  EXPECT_DEATH(build_composition_vector("ACDEFG", 6), "2 <= k <= 5");
}

TEST(Bioinformatics, CompareLeavesNoStateBetweenPairs) {
  // compare scatters its left CV into a table shared by every call on the
  // thread. Run the pairs in a shuffled order in which the left item
  // changes on every call, with self-pairs and a CV of no entries mixed
  // in: each score must still be exactly cv_distance.
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 8;
  cfg.proteins = 6;
  cfg.mutation_rate = 0.05;
  cfg.seed = 11;
  BioinformaticsDataset dataset(cfg, store);
  BioinformaticsApplication app(dataset);

  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  std::vector<gpu::DeviceBuffer> slots;
  std::vector<CompositionVector> cvs;
  for (runtime::ItemId i = 0; i < dataset.item_count(); ++i) {
    runtime::HostBuffer parsed;
    app.parse(i, store.read(app.file_name(i)), parsed);
    const std::string residues(parsed.begin(), parsed.end());
    slots.push_back(prepared_cv_slot(app, device, residues));
    cvs.push_back(build_composition_vector(residues, cfg.k));
  }
  slots.push_back(prepared_cv_slot(app, device, "AC"));
  cvs.push_back(build_composition_vector("AC", cfg.k));
  ASSERT_EQ(cvs.back().size(), 0u);

  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = 0; j < slots.size(); ++j) pairs.emplace_back(i, j);
  }
  Rng rng(17);
  rng.shuffle(pairs);
  for (std::size_t t = 1; t < pairs.size(); ++t) {
    for (std::size_t u = t + 1;
         u < pairs.size() && pairs[t].first == pairs[t - 1].first; ++u) {
      std::swap(pairs[t], pairs[u]);
    }
  }
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const auto [i, j] = pairs[t];
    if (t > 0) {
      ASSERT_NE(i, pairs[t - 1].first) << "call " << t;
    }
    EXPECT_EQ(app.compare(static_cast<runtime::ItemId>(i), slots[i],
                          static_cast<runtime::ItemId>(j), slots[j]),
              cv_distance(cvs[i], cvs[j]))
        << "call " << t << ", pair (" << i << ", " << j << ")";
  }
}

TEST(Bioinformatics, CladeDepthOracle) {
  storage::MemoryStore store;
  BioinformaticsConfig cfg;
  cfg.species = 8;
  cfg.proteins = 2;
  cfg.protein_len_min = 50;
  cfg.protein_len_max = 60;
  BioinformaticsDataset dataset(cfg, store);
  EXPECT_EQ(dataset.clade_depth(0, 1), 2u);  // siblings
  EXPECT_EQ(dataset.clade_depth(0, 2), 1u);  // cousins
  EXPECT_EQ(dataset.clade_depth(0, 7), 0u);  // across the root
  EXPECT_EQ(dataset.clade_depth(3, 3), 32u);
}

}  // namespace
}  // namespace rocket::apps
