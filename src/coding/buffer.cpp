#include "coding/buffer.hpp"

#include <string>

namespace ncfn::coding {

GenerationBuffer::GenerationBuffer(const CodingParams& params,
                                   obs::Observability& obs,
                                   std::uint32_t node)
    : params_(params),
      pool_(PacketPool::make()),
      obs_handles_(CodingObs::bind(obs, node)),
      m_buffered_(&obs.metrics.gauge("coding.node." + std::to_string(node) +
                                     ".generations_buffered")) {}

Decoder& GenerationBuffer::state(SessionId session, GenerationId generation) {
  const Key key{session, generation};
  if (auto it = states_.find(key); it != states_.end()) return *it->second;

  auto& order = fifo_[session];
  if (order.size() >= params_.buffer_generations) {
    const GenerationId victim = order.front();
    order.pop_front();
    states_.erase(Key{session, victim});
    ++evictions_;
    obs_handles_.trace->gen_close(obs_handles_.node, session, victim,
                                  "evict");
  }
  order.push_back(generation);
  auto [it, inserted] = states_.emplace(
      key, std::make_unique<Decoder>(session, generation, params_, pool_));
  it->second->set_obs(&obs_handles_);
  obs_handles_.trace->gen_open(obs_handles_.node, session, generation);
  m_buffered_->set(static_cast<double>(states_.size()));
  return *it->second;
}

Decoder* GenerationBuffer::find(SessionId session, GenerationId generation) {
  auto it = states_.find(Key{session, generation});
  return it == states_.end() ? nullptr : it->second.get();
}

void GenerationBuffer::erase_session(SessionId session) {
  auto it = fifo_.find(session);
  if (it == fifo_.end()) return;
  for (GenerationId gen : it->second) {
    if (states_.erase(Key{session, gen}) > 0) {
      obs_handles_.trace->gen_close(obs_handles_.node, session, gen, "erase");
    }
  }
  fifo_.erase(it);
  m_buffered_->set(static_cast<double>(states_.size()));
}

void GenerationBuffer::erase_released(SessionId session) {
  auto it = fifo_.find(session);
  if (it == fifo_.end()) return;
  std::erase_if(it->second, [&](GenerationId gen) {
    auto st = states_.find(Key{session, gen});
    if (st == states_.end() || !st->second->released()) return false;
    states_.erase(st);
    obs_handles_.trace->gen_close(obs_handles_.node, session, gen, "erase");
    return true;
  });
  if (it->second.empty()) fifo_.erase(it);
  m_buffered_->set(static_cast<double>(states_.size()));
}

}  // namespace ncfn::coding
