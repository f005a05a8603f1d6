// foMPI-NA compatibility shim.
//
// The paper's implementation extends foMPI (Fast One-sided MPI) with the
// foMPI_ prefix "to not violate the standardized MPI namespace". This
// header offers the same strawman interface (Sec. III-B) over NARMA so the
// paper's listings port almost verbatim — see examples/fompi_listing1.cpp
// for Listing 1.
//
// Usage: inside a rank main, bind the calling rank once, then use the
// foMPI_* calls:
//
//   narma::fompi::bind(self);
//   foMPI_Win win; foMPI_Request req; foMPI_Status st;
//   foMPI_Win_allocate(bytes, sizeof(double), &buf, &win);
//   foMPI_Notify_init(win, partner, tag, 1, &req);
//   foMPI_Put_notify(buf, n, FOMPI_DOUBLE, partner, 0, n, FOMPI_DOUBLE,
//                    win, tag);
//   foMPI_Win_flush(partner, win);
//   foMPI_Start(&req); foMPI_Wait(&req, &st);
//
// All calls return FOMPI_SUCCESS; hard errors abort (as NARMA does
// throughout). The binding is stored on the rank's own execution context
// (RankCtx::user_data), so every simulated rank binds its own context: all
// rank fibers share one OS thread, where a thread_local could not tell them
// apart.
#pragma once

#include <memory>
#include <span>

#include "core/world.hpp"

namespace narma::fompi {

// --- Constants mirroring the MPI spellings ---------------------------------

constexpr int FOMPI_SUCCESS = 0;
constexpr int FOMPI_ANY_SOURCE = na::kAnySource;
constexpr int FOMPI_ANY_TAG = na::kAnyTag;

enum foMPI_Datatype : int {
  FOMPI_BYTE = 1,
  FOMPI_INT = 4,
  FOMPI_INT64 = 8,
  FOMPI_DOUBLE = 9,
};

inline std::size_t datatype_size(foMPI_Datatype dt) {
  switch (dt) {
    case FOMPI_BYTE: return 1;
    case FOMPI_INT: return sizeof(int);
    case FOMPI_INT64: return sizeof(std::int64_t);
    case FOMPI_DOUBLE: return sizeof(double);
  }
  NARMA_FATAL("unknown foMPI datatype");
}

// --- Handle types -------------------------------------------------------------

struct foMPI_WinImpl {
  std::unique_ptr<rma::Window> win;
};
using foMPI_Win = foMPI_WinImpl*;

struct foMPI_RequestImpl {
  na::NotifyRequest req;
};
using foMPI_Request = foMPI_RequestImpl*;

struct foMPI_Status {
  int source = FOMPI_ANY_SOURCE;
  int tag = FOMPI_ANY_TAG;
  std::size_t bytes = 0;
};

// --- Rank binding ----------------------------------------------------------------

namespace detail {
inline Rank& rank() {
  // The currently running rank context carries its bound Rank in user_data.
  // Engine::current() is exact in both execution models; a thread_local
  // would alias every fiber sharing the engine thread.
  sim::RankCtx* ctx = sim::Engine::current();
  NARMA_CHECK(ctx != nullptr)
      << "foMPI_* functions must be called from rank code";
  NARMA_CHECK(ctx->user_data() != nullptr)
      << "call narma::fompi::bind(self) before using foMPI_* functions";
  return *static_cast<Rank*>(ctx->user_data());
}
}  // namespace detail

/// Binds the foMPI calls on this simulated rank to `self`. Call once at the
/// top of the rank main.
inline void bind(Rank& self) { self.ctx().set_user_data(&self); }
inline void unbind() {
  sim::RankCtx* ctx = sim::Engine::current();
  if (ctx != nullptr) ctx->set_user_data(nullptr);
}

// --- World queries ---------------------------------------------------------------

inline int foMPI_Comm_rank(int* rank) {
  *rank = detail::rank().id();
  return FOMPI_SUCCESS;
}
inline int foMPI_Comm_size(int* size) {
  *size = detail::rank().size();
  return FOMPI_SUCCESS;
}
inline int foMPI_Barrier() {
  detail::rank().barrier();
  return FOMPI_SUCCESS;
}
inline double foMPI_Wtime() { return to_seconds(detail::rank().now()); }

// --- Window management --------------------------------------------------------------

/// Collective; allocates `size` bytes and returns the local base pointer.
inline int foMPI_Win_allocate(std::size_t size, std::size_t disp_unit,
                              void** baseptr, foMPI_Win* win) {
  auto* w = new foMPI_WinImpl;
  w->win = detail::rank().win_allocate(size, disp_unit);
  *baseptr = w->win->base();
  *win = w;
  return FOMPI_SUCCESS;
}

/// Collective; exposes caller-owned memory.
inline int foMPI_Win_create(void* base, std::size_t size,
                            std::size_t disp_unit, foMPI_Win* win) {
  auto* w = new foMPI_WinImpl;
  w->win = detail::rank().rma().create(base, size, disp_unit);
  *win = w;
  return FOMPI_SUCCESS;
}

inline int foMPI_Win_free(foMPI_Win* win) {
  delete *win;
  *win = nullptr;
  return FOMPI_SUCCESS;
}

inline int foMPI_Win_flush(int rank, foMPI_Win win) {
  win->win->flush(rank);
  return FOMPI_SUCCESS;
}
inline int foMPI_Win_flush_all(foMPI_Win win) {
  win->win->flush_all();
  return FOMPI_SUCCESS;
}
inline int foMPI_Win_fence(foMPI_Win win) {
  win->win->fence();
  return FOMPI_SUCCESS;
}

// --- Notified access (the paper's Sec. III-B interface) ---------------------------

inline int foMPI_Put_notify(const void* origin_addr, int origin_count,
                            foMPI_Datatype origin_type, int target_rank,
                            std::uint64_t target_disp, int target_count,
                            foMPI_Datatype target_type, foMPI_Win win,
                            int tag) {
  NARMA_CHECK(origin_count * datatype_size(origin_type) ==
              static_cast<std::size_t>(target_count) *
                  datatype_size(target_type))
      << "origin/target type signatures disagree";
  detail::rank().na().put_notify(
      *win->win,
      std::span<const std::byte>(
          static_cast<const std::byte*>(origin_addr),
          static_cast<std::size_t>(origin_count) * datatype_size(origin_type)),
      target_rank, target_disp, tag);
  return FOMPI_SUCCESS;
}

inline int foMPI_Get_notify(void* origin_addr, int origin_count,
                            foMPI_Datatype origin_type, int target_rank,
                            std::uint64_t target_disp, int target_count,
                            foMPI_Datatype target_type, foMPI_Win win,
                            int tag) {
  NARMA_CHECK(origin_count * datatype_size(origin_type) ==
              static_cast<std::size_t>(target_count) *
                  datatype_size(target_type))
      << "origin/target type signatures disagree";
  detail::rank().na().get_notify(
      *win->win,
      std::span<std::byte>(
          static_cast<std::byte*>(origin_addr),
          static_cast<std::size_t>(origin_count) * datatype_size(origin_type)),
      target_rank, target_disp, tag);
  return FOMPI_SUCCESS;
}

inline int foMPI_Notify_init(foMPI_Win win, int source, int tag,
                             std::uint32_t expected_count,
                             foMPI_Request* request) {
  auto* r = new foMPI_RequestImpl;
  r->req = detail::rank().na().notify_init(
      *win->win, na::MatchSpec{source, tag}, expected_count);
  *request = r;
  return FOMPI_SUCCESS;
}

inline int foMPI_Start(foMPI_Request* request) {
  detail::rank().na().start((*request)->req);
  return FOMPI_SUCCESS;
}

inline int foMPI_Test(foMPI_Request* request, int* flag,
                      foMPI_Status* status) {
  na::NaStatus st;
  *flag = detail::rank().na().test((*request)->req, &st) ? 1 : 0;
  if (*flag && status) *status = {st.source, st.tag, st.bytes};
  return FOMPI_SUCCESS;
}

inline int foMPI_Wait(foMPI_Request* request, foMPI_Status* status) {
  na::NaStatus st;
  detail::rank().na().wait((*request)->req, &st);
  if (status) *status = {st.source, st.tag, st.bytes};
  return FOMPI_SUCCESS;
}

inline int foMPI_Request_free(foMPI_Request* request) {
  delete *request;  // NotifyRequest's destructor releases the slot
  *request = nullptr;
  return FOMPI_SUCCESS;
}

// --- Plain one-sided and two-sided conveniences -------------------------------------

inline int foMPI_Put(const void* origin_addr, int count, foMPI_Datatype dt,
                     int target_rank, std::uint64_t target_disp,
                     foMPI_Win win) {
  win->win->put(origin_addr,
                static_cast<std::size_t>(count) * datatype_size(dt),
                target_rank, target_disp);
  return FOMPI_SUCCESS;
}

inline int foMPI_Get(void* origin_addr, int count, foMPI_Datatype dt,
                     int target_rank, std::uint64_t target_disp,
                     foMPI_Win win) {
  win->win->get(origin_addr,
                static_cast<std::size_t>(count) * datatype_size(dt),
                target_rank, target_disp);
  return FOMPI_SUCCESS;
}

inline int foMPI_Send(const void* buf, int count, foMPI_Datatype dt, int dst,
                      int tag) {
  detail::rank().send(buf, static_cast<std::size_t>(count) * datatype_size(dt),
                      dst, tag);
  return FOMPI_SUCCESS;
}

inline int foMPI_Recv(void* buf, int count, foMPI_Datatype dt, int src,
                      int tag, foMPI_Status* status) {
  mp::Status st;
  detail::rank().recv(buf, static_cast<std::size_t>(count) * datatype_size(dt),
                      src, tag, &st);
  if (status) *status = {st.source, st.tag, st.bytes};
  return FOMPI_SUCCESS;
}

}  // namespace narma::fompi
