#include "apps/bioinformatics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/compress.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace rocket::apps {

namespace {

constexpr char kAlphabet[] = "ACDEFGHIKLMNPQRSTVWY";
constexpr std::uint32_t kAlphabetSize = 20;
/// Longest k-string: the dense tables below hold 20^k entries each.
constexpr std::uint32_t kMaxK = 5;

/// The base-20 code of each byte, kNotResidue for every byte outside the
/// alphabet (NUL included).
constexpr std::uint8_t kNotResidue = 0xFF;
constexpr auto kResidueCodes = [] {
  std::array<std::uint8_t, 256> codes{};
  codes.fill(kNotResidue);
  for (std::uint8_t c = 0; c < kAlphabetSize; ++c) {
    codes[static_cast<unsigned char>(kAlphabet[c])] = c;
  }
  return codes;
}();

std::uint8_t residue_code(char c) {
  const std::uint8_t code = kResidueCodes[static_cast<unsigned char>(c)];
  if (code == kNotResidue) throw std::runtime_error("bad residue in FASTA");
  return code;
}

/// 20^len: the number of distinct len-strings, and the size of a dense
/// table indexed by their packed base-20 codes.
std::uint32_t kstring_count(std::uint32_t len) {
  std::uint32_t count = 1;
  for (std::uint32_t i = 0; i < len; ++i) count *= kAlphabetSize;
  return count;
}

/// Mutate a proteome in place: per-site substitution at `rate`.
void mutate(std::vector<std::string>& proteins, double rate, Rng& rng) {
  for (auto& protein : proteins) {
    for (auto& residue : protein) {
      if (rng.uniform() < rate) {
        residue = kAlphabet[rng.uniform_index(kAlphabetSize)];
      }
    }
  }
}

std::string to_fasta(const std::vector<std::string>& proteins,
                     std::uint32_t species) {
  std::string out;
  for (std::size_t p = 0; p < proteins.size(); ++p) {
    out += ">sp" + std::to_string(species) + "_protein" + std::to_string(p) +
           " synthetic\n";
    const std::string& seq = proteins[p];
    for (std::size_t i = 0; i < seq.size(); i += 60) {
      out.append(seq, i, std::min<std::size_t>(60, seq.size() - i));
      out += '\n';
    }
  }
  return out;
}

/// Packed CV slot layout:
///   [f64 norm2][u32 count][count × u32 idx][count × f32 val].
/// The double leads so every field stays naturally aligned; `norm2` is
/// Σ val² in value order, the order cv_correlation sums it in.
constexpr std::size_t kPackedCvHeaderBytes =
    sizeof(double) + sizeof(std::uint32_t);

void pack_cv(const CompositionVector& cv, gpu::DeviceBuffer& data) {
  const auto count = static_cast<std::uint32_t>(cv.size());
  const std::size_t needed =
      kPackedCvHeaderBytes + count * (sizeof(std::uint32_t) + sizeof(float));
  ROCKET_CHECK(data.size() >= needed, "CV exceeds slot size");
  double norm2 = 0.0;
  for (const auto v : cv.values) norm2 += static_cast<double>(v) * v;
  std::uint8_t* p = data.data();
  std::memcpy(p, &norm2, sizeof(norm2));
  p += sizeof(norm2);
  std::memcpy(p, &count, sizeof(count));
  p += sizeof(count);
  // An empty CV's vectors may have a null data(), which memcpy must not get.
  if (count == 0) return;
  std::memcpy(p, cv.indices.data(), count * sizeof(std::uint32_t));
  p += count * sizeof(std::uint32_t);
  std::memcpy(p, cv.values.data(), count * sizeof(float));
}

}  // namespace

BioinformaticsDataset::BioinformaticsDataset(BioinformaticsConfig config,
                                             storage::MemoryStore& store)
    : config_(config) {
  // Ancestral proteome.
  Rng root_rng(mix64(config_.seed * 104729 + 1));
  std::vector<std::string> ancestor(config_.proteins);
  for (auto& protein : ancestor) {
    const auto len = static_cast<std::size_t>(root_rng.uniform_int(
        config_.protein_len_min, config_.protein_len_max));
    protein.resize(len);
    for (auto& residue : protein) {
      residue = kAlphabet[root_rng.uniform_index(kAlphabetSize)];
    }
  }

  // Mutate down a balanced binary clade tree: the proteome of species i is
  // the ancestor mutated once per tree level, with the clade (= index
  // range) sharing the mutations of the levels above the split.
  std::vector<std::vector<std::string>> current{ancestor};
  std::uint32_t levels = 0;
  while ((1u << levels) < config_.species) ++levels;
  for (std::uint32_t level = 0; level < levels; ++level) {
    std::vector<std::vector<std::string>> next;
    next.reserve(current.size() * 2);
    for (std::size_t clade = 0; clade < current.size(); ++clade) {
      for (int child = 0; child < 2; ++child) {
        std::vector<std::string> genome = current[clade];
        Rng rng(mix64(config_.seed ^ (level * 2654435761u + clade * 97 +
                                      static_cast<std::uint64_t>(child) + 3)));
        mutate(genome, config_.mutation_rate, rng);
        next.push_back(std::move(genome));
      }
    }
    current = std::move(next);
  }

  for (std::uint32_t species = 0; species < config_.species; ++species) {
    const std::string fasta = to_fasta(current[species], species);
    store.put(file_name(species),
              lz_compress(ByteBuffer(fasta.begin(), fasta.end())));
  }
}

std::string BioinformaticsDataset::file_name(runtime::ItemId item) const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "proteome_%05u.fasta.lz", item);
  return buf;
}

std::uint32_t BioinformaticsDataset::clade_depth(runtime::ItemId a,
                                                 runtime::ItemId b) const {
  if (a == b) return 32;
  std::uint32_t levels = 0;
  while ((1u << levels) < config_.species) ++levels;
  // Species index bits (MSB-first over the tree levels) identify the path;
  // the common prefix length is the depth of the deepest common clade.
  std::uint32_t depth = 0;
  for (std::uint32_t level = 0; level < levels; ++level) {
    const std::uint32_t shift = levels - 1 - level;
    if (((a >> shift) & 1u) != ((b >> shift) & 1u)) break;
    ++depth;
  }
  return depth;
}

CompositionVector build_composition_vector(std::string_view residues,
                                           std::uint32_t k) {
  ROCKET_CHECK(k >= 2 && k <= kMaxK,
               "composition vectors require 2 <= k <= 5");
  const std::size_t n = residues.size();
  CompositionVector cv;
  if (n < k) return cv;

  // Count k, k-1 and k-2 strings into dense tables indexed by their packed
  // base-20 codes.
  std::vector<std::uint8_t> codes(n);
  for (std::size_t i = 0; i < n; ++i) codes[i] = residue_code(residues[i]);
  auto count = [&](std::uint32_t len) {
    std::vector<std::uint32_t> counts(kstring_count(len), 0);
    for (std::size_t i = 0; i + len <= n; ++i) {
      std::uint32_t code = 0;
      for (std::uint32_t j = 0; j < len; ++j) {
        code = code * kAlphabetSize + codes[i + j];
      }
      ++counts[code];
    }
    return counts;
  };
  const auto count_k = count(k), count_k1 = count(k - 1),
             count_k2 = count(k - 2);

  const auto total_k = static_cast<double>(n - k + 1);
  const auto total_k1 = static_cast<double>(n - (k - 1) + 1);
  const auto total_k2 = static_cast<double>(n - (k - 2) + 1);

  const std::uint32_t suffix_modulus = kstring_count(k - 1);
  const std::uint32_t mid_modulus = kstring_count(k - 2);

  // Codes are read in ascending order, so the CV comes out sorted. Every
  // k-string that occurs has its prefix, suffix and middle occurring too,
  // so none of their counts is zero.
  const std::size_t max_entries = std::min(n - k + 1, count_k.size());
  cv.indices.reserve(max_entries);
  cv.values.reserve(max_entries);
  for (std::uint32_t code = 0; code < count_k.size(); ++code) {
    if (count_k[code] == 0) continue;
    // code = a1..ak packed base-20. Prefix = a1..a_{k-1}, suffix = a2..ak,
    // middle = a2..a_{k-1}.
    const std::uint32_t prefix = code / kAlphabetSize;
    const std::uint32_t suffix = code % suffix_modulus;
    const std::uint32_t middle = prefix % mid_modulus;

    const double p = count_k[code] / total_k;
    const double p_prefix = count_k1[prefix] / total_k1;
    const double p_suffix = count_k1[suffix] / total_k1;
    const double p_middle = count_k2[middle] / total_k2;
    const double p0 = p_prefix * p_suffix / p_middle;
    cv.indices.push_back(code);
    cv.values.push_back(static_cast<float>((p - p0) / p0));
  }
  return cv;
}

double cv_correlation(const CompositionVector& a, const CompositionVector& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (const auto v : a.values) na += static_cast<double>(v) * v;
  for (const auto v : b.values) nb += static_cast<double>(v) * v;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.indices[i] < b.indices[j]) {
      ++i;
    } else if (a.indices[i] > b.indices[j]) {
      ++j;
    } else {
      dot += static_cast<double>(a.values[i]) * b.values[j];
      ++i;
      ++j;
    }
  }
  const double denom = std::sqrt(na * nb);
  return denom > 0.0 ? dot / denom : 0.0;
}

double cv_distance(const CompositionVector& a, const CompositionVector& b) {
  return (1.0 - cv_correlation(a, b)) / 2.0;
}

void BioinformaticsApplication::parse(runtime::ItemId, const ByteBuffer& file,
                                      runtime::HostBuffer& out) const {
  const ByteBuffer fasta = lz_decompress(file);
  // Strip headers and newlines; keep the concatenated residues.
  out.clear();
  out.reserve(fasta.size());
  bool in_header = false;
  for (const std::uint8_t byte : fasta) {
    const char c = static_cast<char>(byte);
    if (c == '>') {
      in_header = true;
    } else if (c == '\n') {
      in_header = false;
    } else if (!in_header && c != '\r') {
      out.push_back(byte);
    }
  }
}

void BioinformaticsApplication::preprocess(runtime::ItemId,
                                           gpu::DeviceBuffer& data) const {
  // The buffer currently holds the residue string (parse output), padded
  // up to the slot with NULs; replace it with the packed CV.
  std::string_view residues(reinterpret_cast<const char*>(data.data()),
                            data.size());
  // npos + 1 == 0, so an all-NUL buffer trims to an empty string.
  residues = residues.substr(0, residues.find_last_not_of('\0') + 1);
  const CompositionVector cv =
      build_composition_vector(residues, dataset_->config().k);
  pack_cv(cv, data);
}

double BioinformaticsApplication::compare(
    runtime::ItemId, const gpu::DeviceBuffer& left_data, runtime::ItemId,
    const gpu::DeviceBuffer& right_data) const {
  // cv_distance on the packed slots, read in place. The left CV is
  // scattered into a dense per-thread table of every k-string, and the
  // right CV gathers from it in index order, so matches are added in
  // cv_correlation's order. Every other entry adds 0.0f * val = ±0.0,
  // which keeps the bits: dot starts at +0.0, so it never becomes -0.0,
  // and adding ±0.0 leaves any other value unchanged. The scattered
  // entries are zeroed again, so the table is all zeros between calls.
  thread_local std::vector<float> table;
  const std::uint32_t table_size = kstring_count(dataset_->config().k);
  if (table.size() < table_size) table.resize(table_size, 0.0f);

  const std::uint8_t* left = left_data.data();
  const std::uint8_t* right = right_data.data();
  const double na = *reinterpret_cast<const double*>(left);
  const double nb = *reinterpret_cast<const double*>(right);
  const std::uint32_t a_count =
      *reinterpret_cast<const std::uint32_t*>(left + sizeof(double));
  const std::uint32_t b_count =
      *reinterpret_cast<const std::uint32_t*>(right + sizeof(double));
  const auto* a_idx =
      reinterpret_cast<const std::uint32_t*>(left + kPackedCvHeaderBytes);
  const auto* b_idx =
      reinterpret_cast<const std::uint32_t*>(right + kPackedCvHeaderBytes);
  const auto* a_val = reinterpret_cast<const float*>(a_idx + a_count);
  const auto* b_val = reinterpret_cast<const float*>(b_idx + b_count);
  for (std::uint32_t i = 0; i < a_count; ++i) table[a_idx[i]] = a_val[i];
  double dot = 0.0;
  for (std::uint32_t j = 0; j < b_count; ++j) {
    dot += static_cast<double>(table[b_idx[j]]) * b_val[j];
  }
  for (std::uint32_t i = 0; i < a_count; ++i) table[a_idx[i]] = 0.0f;
  const double denom = std::sqrt(na * nb);
  const double correlation = denom > 0.0 ? dot / denom : 0.0;
  return (1.0 - correlation) / 2.0;
}

Bytes BioinformaticsApplication::slot_size() const {
  const auto& cfg = dataset_->config();
  // The slot must hold (a) the parse output: the concatenated residues, and
  // (b) the packed CV that replaces it; CV entries ≤ distinct k-strings ≤
  // residue count.
  const std::uint64_t max_residues =
      static_cast<std::uint64_t>(cfg.proteins) * cfg.protein_len_max;
  const std::uint64_t cv_bytes =
      kPackedCvHeaderBytes +
      max_residues * (sizeof(std::uint32_t) + sizeof(float));
  return std::max<std::uint64_t>(max_residues, cv_bytes);
}

}  // namespace rocket::apps
