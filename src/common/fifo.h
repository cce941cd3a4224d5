// Growable FIFO that holds no storage while it is empty: the container for the queues
// every connection carries (send, in-flight and receive queues, pending ops, backlogs).
//
// Connection state lives in the application's own memory (Figure 2), so what an idle
// connection costs bounds how many connections one host can hold, and at any instant
// almost all of those queues are empty. std::deque allocates a map and a first node as
// soon as it is constructed (576 B with libstdc++). Fifo is a power-of-two ring that
// allocates on its first push, doubles when full and frees its storage the moment it
// drains. Each element is destroyed as it is popped, so a popped Buffer releases its
// storage (and its header-arena slot) at once.
//
// Unlike std::deque, a push may move the elements: never hold a reference into a Fifo
// across a push onto the same Fifo. DESIGN.md §8 says which queues use it.

#ifndef SRC_COMMON_FIFO_H_
#define SRC_COMMON_FIFO_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace demi {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(Fifo&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      clear();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { clear(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Slots allocated: 0 whenever the Fifo is empty.
  std::size_t capacity() const { return capacity_; }

  // The i-th element from the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & (capacity_ - 1)]; }
  T& front() { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == capacity_) {
      Grow();
    }
    std::construct_at(&slots_[(head_ + size_) & (capacity_ - 1)], std::move(value));
    ++size_;
  }

  void pop_front() {
    DEMI_CHECK(size_ > 0);
    std::destroy_at(&slots_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    if (--size_ == 0) {
      Release();
    }
  }

  // Removes the i-th element from the front; the others keep their order.
  void erase(std::size_t i) {
    DEMI_CHECK(i < size_);
    for (; i + 1 < size_; ++i) {
      (*this)[i] = std::move((*this)[i + 1]);
    }
    std::destroy_at(&(*this)[size_ - 1]);
    if (--size_ == 0) {
      Release();
    }
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      std::destroy_at(&(*this)[i]);
    }
    size_ = 0;
    Release();
  }

 private:
  // Doubles the ring, moving the elements to its front. The first ring has one slot:
  // a connection's queues mostly hold one element at a time, and a larger first ring
  // (say, four 200 B in-flight segments for a SYN) is what every handshaking
  // connection would pay at once.
  void Grow() {
    const std::size_t capacity = capacity_ == 0 ? 1 : 2 * capacity_;
    T* grown = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      std::construct_at(&grown[i], std::move(from));
      std::destroy_at(&from);
    }
    Release();
    slots_ = grown;
    capacity_ = capacity;
  }

  // Frees the ring; the caller has destroyed or moved out every element.
  void Release() {
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
    }
    slots_ = nullptr;
    capacity_ = 0;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // a power of two, or 0 with no storage
  std::size_t head_ = 0;      // slot of the front element
  std::size_t size_ = 0;
};

}  // namespace demi

#endif  // SRC_COMMON_FIFO_H_
