#include "src/stream/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::stream {

namespace {

// Fisher-Yates shuffle driven by our deterministic Rng.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// Chooses k distinct coordinates of [n] uniformly (partial Fisher-Yates).
std::vector<uint64_t> SampleDistinct(uint64_t n, uint64_t k, Rng* rng) {
  LPS_CHECK(k <= n);
  std::vector<uint64_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  for (uint64_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + rng->Below(n - i)]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace

UpdateStream UniformTurnstile(uint64_t n, uint64_t num_updates,
                              int64_t max_abs, uint64_t seed) {
  LPS_CHECK(max_abs >= 1);
  Rng rng(seed);
  UpdateStream stream;
  stream.reserve(num_updates);
  for (uint64_t t = 0; t < num_updates; ++t) {
    int64_t delta =
        1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(max_abs)));
    if (rng.Next() & 1) delta = -delta;
    stream.push_back({rng.Below(n), delta});
  }
  return stream;
}

UpdateStream HotSetTurnstile(uint64_t n, uint64_t num_updates,
                             uint64_t hot_keys, uint64_t epoch,
                             int64_t max_abs, uint64_t seed) {
  LPS_CHECK(max_abs >= 1);
  LPS_CHECK(hot_keys >= 1 && hot_keys <= n);
  LPS_CHECK(epoch >= 1);
  Rng rng(seed);
  std::vector<uint64_t> working_set(hot_keys);
  UpdateStream stream;
  stream.reserve(num_updates);
  for (uint64_t t = 0; t < num_updates; ++t) {
    if (t % epoch == 0) {
      for (auto& key : working_set) key = rng.Below(n);
    }
    int64_t delta =
        1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(max_abs)));
    if (rng.Next() & 1) delta = -delta;
    stream.push_back({working_set[rng.Below(hot_keys)], delta});
  }
  return stream;
}

UpdateStream ZipfianVector(uint64_t n, double alpha, int64_t scale,
                           bool signed_values, uint64_t seed) {
  LPS_CHECK(scale >= 1);
  Rng rng(seed);
  std::vector<uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Shuffle(&perm, &rng);
  UpdateStream stream;
  stream.reserve(n);
  for (uint64_t rank = 0; rank < n; ++rank) {
    const double weight =
        static_cast<double>(scale) / std::pow(static_cast<double>(rank + 1), alpha);
    int64_t value = static_cast<int64_t>(std::llround(weight));
    if (value == 0) continue;
    if (signed_values && (rng.Next() & 1)) value = -value;
    stream.push_back({perm[rank], value});
  }
  Shuffle(&stream, &rng);
  return stream;
}

UpdateStream SignVector(uint64_t n, uint64_t k, uint64_t seed) {
  Rng rng(seed);
  UpdateStream stream;
  stream.reserve(k);
  for (uint64_t i : SampleDistinct(n, k, &rng)) {
    stream.push_back({i, (rng.Next() & 1) ? int64_t{1} : int64_t{-1}});
  }
  return stream;
}

UpdateStream SparseVector(uint64_t n, uint64_t k, int64_t max_abs,
                          uint64_t seed) {
  LPS_CHECK(max_abs >= 1);
  Rng rng(seed);
  UpdateStream stream;
  for (uint64_t i : SampleDistinct(n, k, &rng)) {
    int64_t value =
        1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(max_abs)));
    if (rng.Next() & 1) value = -value;
    // Split roughly half the coordinates into two partial updates so the
    // stream exercises accumulation, not just single writes.
    if ((rng.Next() & 1) && std::abs(value) > 1) {
      const int64_t part = value / 2;
      stream.push_back({i, part});
      stream.push_back({i, value - part});
    } else {
      stream.push_back({i, value});
    }
  }
  Shuffle(&stream, &rng);
  return stream;
}

UpdateStream InsertDeleteChurn(uint64_t n, uint64_t churn, uint64_t survivors,
                               uint64_t seed) {
  LPS_CHECK(churn + survivors <= n);
  Rng rng(seed);
  std::vector<uint64_t> coords = SampleDistinct(n, churn + survivors, &rng);
  UpdateStream stream;
  stream.reserve(2 * churn + survivors);
  for (uint64_t j = 0; j < churn; ++j) {
    const int64_t v =
        1 + static_cast<int64_t>(rng.Below(100));
    stream.push_back({coords[j], v});
  }
  for (uint64_t j = 0; j < survivors; ++j) {
    stream.push_back({coords[churn + j], 1});
  }
  // Deletions interleaved at the end, in random order.
  std::vector<size_t> order(churn);
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, &rng);
  for (size_t j : order) {
    stream.push_back({coords[j], -stream[j].delta});
  }
  return stream;
}

UpdateStream PlantedHeavyHitters(uint64_t n, uint64_t num_heavy,
                                 int64_t heavy_value, uint64_t noise_support,
                                 bool signed_values, uint64_t seed) {
  LPS_CHECK(num_heavy + noise_support <= n);
  Rng rng(seed);
  std::vector<uint64_t> coords =
      SampleDistinct(n, num_heavy + noise_support, &rng);
  UpdateStream stream;
  stream.reserve(num_heavy + noise_support);
  for (uint64_t j = 0; j < num_heavy; ++j) {
    int64_t v = heavy_value;
    if (signed_values && (rng.Next() & 1)) v = -v;
    stream.push_back({coords[j], v});
  }
  for (uint64_t j = 0; j < noise_support; ++j) {
    int64_t v = 1;
    if (signed_values && (rng.Next() & 1)) v = -v;
    stream.push_back({coords[num_heavy + j], v});
  }
  Shuffle(&stream, &rng);
  return stream;
}

LetterStream DuplicateStream(uint64_t n, uint64_t extras, uint64_t seed) {
  Rng rng(seed);
  LetterStream base(n);
  std::iota(base.begin(), base.end(), 0);
  Shuffle(&base, &rng);
  // Extra e is letter[e] inserted at position pos[e] of the n + e letters
  // before it. Inserting one at a time is quadratic, so the inserts are
  // replayed backwards instead: the last lands at its own position, and
  // each earlier one at the pos-th slot no later insert took — found in
  // O(log length) by a Fenwick tree counting free slots.
  std::vector<uint64_t> letter(extras), pos(extras);
  for (uint64_t e = 0; e < extras; ++e) {
    letter[e] = rng.Below(n);
    pos[e] = rng.Below(n + e + 1);
  }
  const uint64_t length = n + extras;
  // 1-based; node i covers the lowbit(i) slots ending at i, all free.
  std::vector<uint64_t> free_tree(length + 1, 0);
  for (uint64_t i = 1; i <= length; ++i) free_tree[i] = i & (~i + 1);
  uint64_t top = 1;
  while (top * 2 <= length) top *= 2;
  LetterStream letters(length);
  std::vector<bool> taken(length, false);
  for (uint64_t e = extras; e-- > 0;) {
    uint64_t slot = 0;  // ends as the 0-based index of the free slot
    uint64_t rank = pos[e];
    for (uint64_t step = top; step > 0; step /= 2) {
      if (slot + step <= length && free_tree[slot + step] <= rank) {
        slot += step;
        rank -= free_tree[slot];
      }
    }
    letters[slot] = letter[e];
    taken[slot] = true;
    for (uint64_t i = slot + 1; i <= length; i += i & (~i + 1)) {
      --free_tree[i];
    }
  }
  uint64_t next = 0;
  for (uint64_t i = 0; i < length; ++i) {
    if (!taken[i]) letters[i] = base[next++];
  }
  return letters;
}

LetterStream ShortStreamWithDuplicates(uint64_t n, uint64_t s,
                                       uint64_t num_duplicates,
                                       uint64_t seed) {
  LPS_CHECK(s <= n);
  const uint64_t length = n - s;
  LPS_CHECK(2 * num_duplicates <= length);
  Rng rng(seed);
  // Choose num_duplicates letters appearing twice and length - 2*dups
  // letters appearing once, all distinct.
  const uint64_t distinct = length - num_duplicates;
  std::vector<uint64_t> letters_set = SampleDistinct(n, distinct, &rng);
  LetterStream letters;
  letters.reserve(length);
  for (uint64_t j = 0; j < distinct; ++j) letters.push_back(letters_set[j]);
  for (uint64_t j = 0; j < num_duplicates; ++j) {
    letters.push_back(letters_set[j]);
  }
  Shuffle(&letters, &rng);
  return letters;
}

UpdateStream DuplicatesReduction(uint64_t n, const LetterStream& letters) {
  UpdateStream stream;
  stream.reserve(n + letters.size());
  for (uint64_t i = 0; i < n; ++i) stream.push_back({i, -1});
  for (uint64_t letter : letters) {
    LPS_CHECK(letter < n);
    stream.push_back({letter, 1});
  }
  return stream;
}

}  // namespace lps::stream
