#include "net/network.hpp"

#include <algorithm>

namespace dtx::net {

void Mailbox::push(Message message, Clock::time_point deliver_at) {
  {
    sync::MutexLock lock(mutex_);
    queue_.push(Timed{deliver_at, next_sequence_++, std::move(message)});
  }
  // One consumer at a time (a site's dispatcher, or a daemon's startup
  // loop before it).
  available_.notify_one();
}

std::optional<Message> Mailbox::pop(std::chrono::microseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  sync::MutexLock lock(mutex_);
  for (;;) {
    if (interrupted_) return std::nullopt;
    const auto now = Clock::now();
    auto wake = deadline;
    if (!queue_.empty()) {
      const auto due = queue_.top().deliver_at;
      if (due <= now) {
        Message message = std::move(const_cast<Timed&>(queue_.top()).message);
        queue_.pop();
        return message;
      }
      wake = std::min(due, deadline);
    }
    if (now >= deadline) return std::nullopt;
    available_.wait_until(mutex_, wake);
  }
}

std::optional<Message> Mailbox::try_pop() {
  sync::MutexLock lock(mutex_);
  if (queue_.empty() || queue_.top().deliver_at > Clock::now()) {
    return std::nullopt;
  }
  Message message = std::move(const_cast<Timed&>(queue_.top()).message);
  queue_.pop();
  return message;
}

void Mailbox::interrupt() {
  {
    sync::MutexLock lock(mutex_);
    interrupted_ = true;
  }
  available_.notify_all();
}

void Mailbox::reset() {
  sync::MutexLock lock(mutex_);
  queue_ = {};
  interrupted_ = false;
}

std::size_t Mailbox::pending() const {
  sync::MutexLock lock(mutex_);
  return queue_.size();
}

}  // namespace dtx::net
