#include "cache/store.h"

namespace ntier::cache {

bool CacheStore::lookup(std::uint64_t key, sim::SimTime now) {
  const std::uint32_t slot = find_live(key, now);
  if (slot == kNil) return false;
  promote(slot);
  return true;
}

bool CacheStore::holds(std::uint64_t key, sim::SimTime now) {
  return find_live(key, now) != kNil;
}

void CacheStore::insert(std::uint64_t key, sim::SimTime now, sim::SimTime ttl) {
  const auto spare =
      free_ != kNil ? free_ : static_cast<std::uint32_t>(entries_.size());
  const auto [slot, inserted] = index_.emplace(key, spare);
  if (!inserted) {
    entries_[slot].expires = now + ttl;
    promote(slot);
    return;
  }
  if (slot == entries_.size())
    entries_.emplace_back();
  else
    free_ = entries_[slot].next;
  entries_[slot].key = key;
  entries_[slot].expires = now + ttl;
  link_front(slot);
  if (index_.size() > capacity_) {
    ++evictions_;
    erase(tail_);
  }
}

bool CacheStore::invalidate(std::uint64_t key) {
  const std::uint32_t slot = index_.find(key);
  if (slot == kNil) return false;
  erase(slot);
  return true;
}

std::uint32_t CacheStore::find_live(std::uint64_t key, sim::SimTime now) {
  const std::uint32_t slot = index_.find(key);
  if (slot == kNil || entries_[slot].expires > now) return slot;
  ++expirations_;
  erase(slot);
  return kNil;
}

void CacheStore::link_front(std::uint32_t slot) {
  Entry& e = entries_[slot];
  e.prev = kNil;
  e.next = head_;
  if (head_ != kNil)
    entries_[head_].prev = slot;
  else
    tail_ = slot;
  head_ = slot;
}

void CacheStore::promote(std::uint32_t slot) {
  if (slot == head_) return;
  unlink(slot);
  link_front(slot);
}

void CacheStore::unlink(std::uint32_t slot) {
  const Entry& e = entries_[slot];
  if (e.prev != kNil)
    entries_[e.prev].next = e.next;
  else
    head_ = e.next;
  if (e.next != kNil)
    entries_[e.next].prev = e.prev;
  else
    tail_ = e.prev;
}

void CacheStore::erase(std::uint32_t slot) {
  unlink(slot);
  index_.erase(entries_[slot].key);
  entries_[slot].next = free_;
  free_ = slot;
}

}  // namespace ntier::cache
