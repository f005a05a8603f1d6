// Arrival-ordered match index: MPI-style <source, tag> matching with
// wildcards, oldest match first (paper Sec. III). It serves Notified
// Access's unexpected queue (core/notify) and message passing's posted and
// unexpected queues (mp/endpoint).
//
// Entries live once, in a flat store whose slot position is their insertion
// order. Each has a key <space, source, tag> (KeyOf extracts it); `space`
// separates domains that never match each other, such as NA windows or MP's
// user and reserved tags. Each shape has one list kind, a FIFO of store
// positions threaded through the slots and keyed per kind:
//
//   kExact <space, source, tag>   kByTag <space, tag>   (any source)
//   kBySrc <space, source>        kAll   <space>        (any source, tag)
//
// The lookup direction is a template parameter:
//
//  * kByShape: entries are envelopes (arrived messages), a lookup names a
//    shape and reads its kind's list. A kind is linked on the first lookup
//    of its shape, in store order, and later inserts append; so the list's
//    front, once entries consumed through other kinds are pruned, is the
//    entry a linear arrival-order scan picks.
//  * kByEnvelope: entries are shapes (posted receives), each linked into
//    its own kind only; a lookup names an envelope, probes the at most four
//    lists that can accept it and takes the lowest store position: MPI's
//    oldest posted receive.
//
// The lists live in one open-addressing table keyed by <kind, key>.
// Consumption leaves a tombstone (and stale references in other kinds).
// Once tombstones outnumber live entries by more than CompactSlack,
// compaction squeezes them out and relinks, so store and lists stay O(live).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace narma {

/// Wildcard source or tag of a MatchKey (MPI's ANY_SOURCE / ANY_TAG).
inline constexpr int kMatchAny = -1;

/// An entry's match key: a concrete envelope, or a shape whose source and
/// tag may be kMatchAny.
struct MatchKey {
  std::uint64_t space = 0;
  int source = kMatchAny;
  int tag = kMatchAny;
};

enum class MatchLookup : std::uint8_t { kByShape, kByEnvelope };

/// CompactSlack: tombstones tolerated beyond the live entries before
/// compaction; NA's 64 is pinned by Sec. V's cache model (charge_uq).
template <class Entry, class KeyOf,
          MatchLookup Lookup = MatchLookup::kByShape,
          std::size_t CompactSlack = 64>
class MatchIndex {
 public:
  /// Stores `e` behind every entry inserted before it.
  template <class E>
  void insert(E&& e) {
    NARMA_CHECK(store_.size() < kNil) << "match index exceeds 2^32 slots";
    const auto pos = static_cast<std::uint32_t>(store_.size());
    store_.push_back(Slot{std::forward<E>(e)});
    ++live_;
    link_slot(pos);
  }

  /// Oldest entry matching `key`; nullptr when none. Under kByShape `key`
  /// is a shape (wildcards allowed), under kByEnvelope a concrete envelope
  /// that the entry's shape must accept. The pointer stays valid until the
  /// next insert() or erase().
  Entry* find(const MatchKey& key) {
    last_list_len_ = 0;
    if (live_ == 0) return nullptr;
    std::uint32_t oldest = kNil;
    if constexpr (Lookup == MatchLookup::kByShape) {
      const Kind kind = kind_of(key.source, key.tag);
      if (!(linked_ & (1u << kind))) {  // first lookup of this kind
        linked_ |= static_cast<std::uint8_t>(1u << kind);
        for (std::uint32_t pos = 0; pos < store_.size(); ++pos)
          if (store_[pos].live)
            link(kind, key_of(kind, KeyOf{}(store_[pos])), pos);
      }
      oldest = front(kind, key_of(kind, key));
    } else {
      for (const Kind kind : {kExact, kByTag, kBySrc, kAll})
        if (linked_ & (1u << kind))
          oldest = std::min(oldest, front(kind, key_of(kind, key)));
    }
    return oldest == kNil ? nullptr : &store_[oldest];
  }

  /// Consumes `e`, which find() returned.
  void erase(const Entry* e) {
    const std::size_t pos = position(e);
    NARMA_ASSERT(pos < store_.size() && store_[pos].live);
    store_[pos].live = false;
    --live_;
    if (store_.size() - live_ > live_ + CompactSlack) compact();
  }

  /// Store position of `e`, which find() returned, and the size of one
  /// store slot: together they place `e` in the store's layout.
  std::size_t position(const Entry* e) const {
    return static_cast<std::size_t>(static_cast<const Slot*>(e) -
                                    store_.data());
  }
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Length (including lazily prunable stale refs) of the lists consulted
  /// by the most recent find(); observability input.
  std::size_t last_list_len() const { return last_list_len_; }

  /// Footprint: store slots held (live entries plus tombstones) and list
  /// references held across the linked kinds (live plus stale).
  std::size_t store_slots() const { return store_.size(); }
  std::size_t linked_refs() const {
    std::size_t refs = 0;
    for (const Cell& c : cells_) refs += c.len;
    return refs;
  }

 private:
  enum Kind : std::uint8_t { kExact, kByTag, kBySrc, kAll, kKinds };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Lists of drained keys kept beyond the live entry count at compaction.
  static constexpr std::size_t kDrainedLists = 64;

  struct Slot : Entry {
    std::array<std::uint32_t, kKinds> next{};  // successor per linked kind
    bool live = true;
  };
  struct Key {
    std::uint64_t space = 0;
    std::uint64_t sel = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  /// One cell of the open-addressing table of lists: `kind`'s list for
  /// `key`, or an empty cell (kind == kKinds).
  struct Cell {
    Key key;
    Kind kind = kKinds;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t len = 0;  // linked refs, stale ones included
  };

  static Kind kind_of(int source, int tag) {
    if (source != kMatchAny) return tag != kMatchAny ? kExact : kBySrc;
    return tag != kMatchAny ? kByTag : kAll;
  }
  static Key key_of(Kind kind, const MatchKey& k) {
    const auto src = static_cast<std::uint32_t>(k.source);
    const auto tag = static_cast<std::uint32_t>(k.tag);
    const bool by_src = kind == kExact || kind == kBySrc;
    const bool by_tag = kind == kExact || kind == kByTag;
    return {k.space,
            std::uint64_t{by_src ? src : 0u} << 32 | (by_tag ? tag : 0u)};
  }

  /// Appends `pos` to `kind`'s list for `key`, making the list if need be.
  void link(Kind kind, const Key& key, std::uint32_t pos) {
    if (2 * (used_ + 1) > cells_.size()) rehash();
    Cell* c = find_cell(kind, key);
    if (c->kind == kKinds) {
      *c = Cell{key, kind};
      ++used_;
    }
    store_[pos].next[kind] = kNil;
    if (c->tail == kNil)
      c->head = pos;
    else
      store_[c->tail].next[kind] = pos;
    c->tail = pos;
    ++c->len;
  }

  /// Links the live slot `pos` into its own shape's list (kByEnvelope) or
  /// into every kind in use (kByShape).
  void link_slot(std::uint32_t pos) {
    const MatchKey k = KeyOf{}(store_[pos]);
    if constexpr (Lookup == MatchLookup::kByEnvelope) {
      const Kind kind = kind_of(k.source, k.tag);
      linked_ |= static_cast<std::uint8_t>(1u << kind);
      link(kind, key_of(kind, k), pos);
    } else {
      for (const Kind kind : {kExact, kByTag, kBySrc, kAll})
        if (linked_ & (1u << kind)) link(kind, key_of(kind, k), pos);
    }
  }

  /// Front of `kind`'s list for `key` after pruning consumed entries; kNil
  /// when the list is absent or drained.
  std::uint32_t front(Kind kind, const Key& key) {
    if (cells_.empty()) return kNil;
    Cell& list = *find_cell(kind, key);
    if (list.kind == kKinds) return kNil;
    last_list_len_ += list.len;
    while (list.head != kNil && !store_[list.head].live) {
      list.head = store_[list.head].next[kind];  // consumed: prune lazily
      --list.len;
    }
    if (list.head == kNil) list.tail = kNil;
    return list.head;
  }

  void compact() {
    // Squeeze the tombstones out. Survivors keep their relative (arrival)
    // order, so relinking in store order rebuilds every list without a sort.
    std::erase_if(store_, [](const Slot& s) { return !s.live; });
    for (Cell& c : cells_) c = Cell{c.key, c.kind};
    for (std::uint32_t pos = 0; pos < store_.size(); ++pos) link_slot(pos);
    // Drained keys keep their (empty) list for the next insert, unless
    // there are more of them than the live entries warrant.
    if (used_ > live_ + kDrainedLists) rehash();
  }

  /// The cell holding `kind`'s list for `key`, or the empty cell where it
  /// would go. Linear probing over a power-of-two table at most half full.
  Cell* find_cell(Kind kind, const Key& key) {
    std::uint64_t h = (key.space + kind) * 0x9e3779b97f4a7c15ULL;
    h = (h ^ key.sel ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      Cell& c = cells_[i];
      if (c.kind == kKinds || (c.kind == kind && c.key == key)) return &c;
    }
  }

  /// Rebuilds the table at four cells per list that holds refs (16 at
  /// least), dropping the drained lists.
  void rehash() {
    std::size_t keep = 0;
    for (const Cell& c : cells_) keep += c.kind != kKinds && c.len > 0;
    std::size_t size = 16;
    while (size < 4 * keep) size *= 2;
    std::vector<Cell> old(size);
    old.swap(cells_);
    used_ = keep;
    for (const Cell& c : old)
      if (c.kind != kKinds && c.len > 0) *find_cell(c.kind, c.key) = c;
  }

  std::vector<Slot> store_;
  std::size_t live_ = 0;
  std::vector<Cell> cells_;
  std::size_t used_ = 0;     // cells holding a list
  std::uint8_t linked_ = 0;  // bit per kind with lists
  std::size_t last_list_len_ = 0;
};

}  // namespace narma
